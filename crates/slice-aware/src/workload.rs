//! The §3 microbenchmark kernels: uniform random reads/writes over a
//! buffer reached through a pointer table.
//!
//! Figs. 6, 7 and 17 all run the same inner loop — "locations in this
//! memory are read/written randomly (with uniform distribution)" — over
//! buffers allocated either slice-aware or contiguously. The paper notes
//! the addresses live in "an array of pointers", so every operation pays
//! a little fixed work on top of the probed access; [`OP_OVERHEAD`]
//! models that (index generation + pointer load served from the nearby
//! table).

use crate::alloc::SliceBuffer;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use llc_sim::AccessKind;
use trafficgen::Rng64;

/// Fixed per-operation cycles: random-index arithmetic plus the pointer
/// fetch from the (hot) pointer array.
pub(crate) const OP_OVERHEAD: Cycles = 20;

/// Touches every line once so the measurement starts warm (the paper's
/// 100-run experiments amortise the cold start; we separate it).
pub fn warm_buffer(m: &mut Machine, core: usize, buf: &SliceBuffer) {
    for &pa in buf.lines() {
        m.touch_read(core, pa);
    }
    m.drain_write_backs(core);
}

/// Runs `ops` uniform random reads or writes over `buf` from `core`;
/// returns total cycles including per-op overhead.
pub fn random_access(
    m: &mut Machine,
    core: usize,
    buf: &SliceBuffer,
    ops: usize,
    kind: AccessKind,
    seed: u64,
) -> Cycles {
    assert!(!buf.is_empty(), "empty buffer");
    let mut rng = Rng64::seed_from_u64(seed);
    let mut total = 0;
    for _ in 0..ops {
        let pa = buf.line(rng.gen_range(0..buf.len()));
        m.advance(core, OP_OVERHEAD);
        total += OP_OVERHEAD;
        total += match kind {
            AccessKind::Read => m.touch_read(core, pa),
            AccessKind::Write => m.touch_write(core, pa),
        };
    }
    total
}

/// Interleaves the random-access kernel across several `(core, buffer)`
/// pairs round-robin — the multi-core runs of Fig. 7 — and returns each
/// core's total cycles.
pub fn random_access_multicore(
    m: &mut Machine,
    work: &[(usize, &SliceBuffer)],
    ops_per_core: usize,
    kind: AccessKind,
    seed: u64,
) -> Vec<Cycles> {
    assert!(!work.is_empty(), "no work");
    let mut rngs: Vec<Rng64> = (0..work.len())
        .map(|i| Rng64::seed_from_u64(seed ^ (i as u64) << 32))
        .collect();
    let mut totals = vec![0; work.len()];
    for _ in 0..ops_per_core {
        for (i, &(core, buf)) in work.iter().enumerate() {
            let pa = buf.line(rngs[i].gen_range(0..buf.len()));
            m.advance(core, OP_OVERHEAD);
            totals[i] += OP_OVERHEAD;
            totals[i] += match kind {
                AccessKind::Read => m.touch_read(core, pa),
                AccessKind::Write => m.touch_write(core, pa),
            };
        }
    }
    totals
}

/// Aggregate operations per second over per-core cycle totals (Fig. 7's
/// y-axis): each core retires `ops` in `cycles/freq` seconds; the system
/// rate is the sum of per-core rates.
pub fn aggregate_ops_per_sec(totals: &[Cycles], ops_per_core: usize, freq_ghz: f64) -> f64 {
    totals
        .iter()
        .map(|&c| {
            if c == 0 {
                0.0
            } else {
                ops_per_core as f64 / (c as f64 / (freq_ghz * 1e9))
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::SliceAllocator;
    use llc_sim::machine::MachineConfig;

    fn setup() -> (
        Machine,
        SliceAllocator<impl FnMut(llc_sim::PhysAddr) -> usize>,
    ) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
        let r = m.mem_mut().alloc(128 << 20, 1 << 20).unwrap();
        let alloc = SliceAllocator::new(r, m.slice_oracle());
        (m, alloc)
    }

    #[test]
    fn warm_buffer_makes_reads_cache_hits() {
        let (mut m, mut a) = setup();
        let buf = a.alloc_lines(0, 256).unwrap();
        warm_buffer(&mut m, 0, &buf);
        // 256 lines fit in L2 (4096 lines): every read is now a hit.
        let c = random_access(&mut m, 0, &buf, 100, AccessKind::Read, 1);
        let per_op = c as f64 / 100.0;
        assert!(per_op <= (OP_OVERHEAD + 11) as f64, "per-op {per_op}");
    }

    #[test]
    fn close_slice_reads_beat_far_slice_reads() {
        // The heart of §3: same working set size, different slice.
        let (mut m, mut a) = setup();
        let lines = 1_441_792 / 64; // The paper's 1.375 MB buffer.
        let near = a.alloc_lines(m.closest_slice(0), lines).unwrap();
        let far_slice = *m.slices_by_distance(0).last().unwrap();
        let far = a.alloc_lines(far_slice, lines).unwrap();
        warm_buffer(&mut m, 0, &near);
        let c_near = random_access(&mut m, 0, &near, 20_000, AccessKind::Read, 2);
        warm_buffer(&mut m, 0, &far);
        let c_far = random_access(&mut m, 0, &far, 20_000, AccessKind::Read, 2);
        assert!(
            c_near < c_far,
            "near {c_near} must beat far {c_far} for LLC-resident sets"
        );
        let speedup = (c_far - c_near) as f64 / c_far as f64;
        assert!(speedup > 0.05, "speedup {speedup} too small");
    }

    #[test]
    fn slice_aware_beats_contiguous_on_reads() {
        let (mut m, mut a) = setup();
        let lines = 1_441_792 / 64;
        let aware = a.alloc_lines(m.closest_slice(0), lines).unwrap();
        let normal = a.alloc_contiguous_lines(lines).unwrap();
        warm_buffer(&mut m, 0, &aware);
        let c_aware = random_access(&mut m, 0, &aware, 20_000, AccessKind::Read, 3);
        warm_buffer(&mut m, 0, &normal);
        let c_normal = random_access(&mut m, 0, &normal, 20_000, AccessKind::Read, 3);
        assert!(c_aware < c_normal);
    }

    #[test]
    fn sustained_writes_show_slice_dependence() {
        // Fig. 6b: with enough writes, the write-back backlog exposes the
        // slice distance.
        let (mut m, mut a) = setup();
        let lines = 1_441_792 / 64;
        let near = a.alloc_lines(m.closest_slice(0), lines).unwrap();
        let far_slice = *m.slices_by_distance(0).last().unwrap();
        let far = a.alloc_lines(far_slice, lines).unwrap();
        warm_buffer(&mut m, 0, &near);
        let c_near = random_access(&mut m, 0, &near, 20_000, AccessKind::Write, 4);
        m.drain_write_backs(0);
        warm_buffer(&mut m, 0, &far);
        let c_far = random_access(&mut m, 0, &far, 20_000, AccessKind::Write, 4);
        assert!(c_near < c_far, "near {c_near} vs far {c_far}");
    }

    #[test]
    fn multicore_runs_all_cores() {
        let (mut m, mut a) = setup();
        let bufs: Vec<_> = (0..8)
            .map(|c| a.alloc_lines(m.closest_slice(c), 512).unwrap())
            .collect();
        let work: Vec<(usize, &SliceBuffer)> = bufs.iter().enumerate().collect();
        let totals = random_access_multicore(&mut m, &work, 500, AccessKind::Read, 5);
        assert_eq!(totals.len(), 8);
        assert!(totals.iter().all(|&t| t > 0));
        let ops = aggregate_ops_per_sec(&totals, 500, 3.2);
        assert!(ops > 0.0);
    }

    #[test]
    fn aggregate_ops_formula() {
        // One core, 1000 ops in 3.2e9 cycles at 3.2 GHz = 1 second => 1000 ops/s.
        let ops = aggregate_ops_per_sec(&[3_200_000_000], 1000, 3.2);
        assert!((ops - 1000.0).abs() < 1e-6);
        assert_eq!(aggregate_ops_per_sec(&[0], 10, 3.2), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn random_access_rejects_empty() {
        let (mut m, _a) = setup();
        let empty = SliceBuffer::from_lines(vec![]);
        random_access(&mut m, 0, &empty, 1, AccessKind::Read, 0);
    }
}
