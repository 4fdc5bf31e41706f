//! Core→slice access-time profiling — the §2.2 methodology.
//!
//! For every (core, slice) pair the paper measures LLC hit latency as
//! follows: pick 20 cache lines (the LLC's associativity) that share one
//! cache set and map to the target slice; write them; `clflush` the lot;
//! read all 20 — the loads fill the LLC set completely while the 8-way
//! L1/L2 keep only the last 8 — and then time re-reading the *first
//! eight*, which can only be LLC hits in the target slice. `rdtsc`
//! overhead (32 cycles) is subtracted.
//!
//! [`profile_access_times`] reproduces the procedure verbatim against the
//! simulator and regenerates Fig. 5 (Haswell) and Fig. 16 (Skylake).

use llc_sim::addr::PhysAddr;
use llc_sim::machine::Machine;
use llc_sim::mem::Region;
use llc_sim::tsc::measure_interval;

/// Measured read/write cycles from one core to one slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceAccessTime {
    /// Target slice.
    pub slice: usize,
    /// Average cycles per read of an LLC-resident line.
    pub read_cycles: f64,
    /// Average visible cycles per write.
    pub write_cycles: f64,
}

/// A full core→slice latency profile.
#[derive(Debug, Clone)]
pub struct SliceLatencyProfile {
    /// Probing core.
    pub(crate) core: usize,
    /// One entry per slice, in slice order.
    pub entries: Vec<SliceAccessTime>,
}

impl SliceLatencyProfile {
    /// Slices ordered by measured read latency (ascending).
    pub(crate) fn by_read_latency(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            self.entries[a]
                .read_cycles
                .partial_cmp(&self.entries[b].read_cycles)
                .expect("finite latencies")
                .then(a.cmp(&b))
        });
        order
    }

    /// The measured-closest slice.
    pub fn closest(&self) -> usize {
        self.by_read_latency()[0]
    }

    /// Max read-latency saving vs. the farthest slice (the paper's "up to
    /// ~20 cycles").
    pub fn max_read_saving(&self) -> f64 {
        let reads: Vec<f64> = self.entries.iter().map(|e| e.read_cycles).collect();
        let lo = reads.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = reads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }
}

/// Finds `count` line addresses inside `region` that map to `slice` and
/// share one LLC set (and therefore one L1/L2 set, given the strides).
///
/// Returns fewer than `count` only if the region is too small.
pub(crate) fn find_conflicting_lines(
    m: &Machine,
    region: Region,
    slice: usize,
    count: usize,
) -> Vec<PhysAddr> {
    // Lines 128 KB apart share the 2048-entry LLC set index, the 512-entry
    // L2 index and the 64-entry L1 index.
    let llc_sets = m.config().llc_slice.sets;
    let stride = llc_sets * llc_sim::CACHE_LINE;
    let mut out = Vec::with_capacity(count);
    let mut off = 0usize;
    while out.len() < count && off < region.len() {
        let pa = region.pa(off);
        if m.slice_of(pa) == slice {
            out.push(pa);
        }
        off += stride;
    }
    out
}

/// Measures average read and write cycles from `core` to every slice,
/// repeating the §2.2 procedure `reps` times per slice.
///
/// # Panics
///
/// Panics when `region` cannot supply enough conflicting lines (use a
/// 1 GB hugepage, like the paper).
pub fn profile_access_times(
    m: &mut Machine,
    core: usize,
    region: Region,
    reps: usize,
) -> SliceLatencyProfile {
    let slices = m.config().slices;
    // Number of timed lines: the paper times the first `L1-ways` (8) lines
    // on Haswell. On victim-cache parts (Skylake) each timed read spills an
    // L2 victim into the same LLC set, so the batch must be small enough
    // that set pressure never evicts a yet-untimed line mid-measurement.
    let timed = match m.config().llc_mode {
        llc_sim::machine::LlcMode::Inclusive => m.config().l1.ways,
        llc_sim::machine::LlcMode::Victim => {
            (m.config().llc_slice.ways / 2).min(m.config().l1.ways)
        }
    };
    // Enough lines that the timed ones are LLC-resident but out of the
    // private caches: the LLC associativity on inclusive parts (the paper's
    // 20 lines on Haswell), or `L2 ways + timed` on victim-cache parts so
    // the timed lines get evicted from L2 *into* the LLC first.
    let needed = match m.config().llc_mode {
        llc_sim::machine::LlcMode::Inclusive => {
            m.config().llc_slice.ways.max(m.config().l2.ways + timed)
        }
        llc_sim::machine::LlcMode::Victim => m.config().l2.ways + timed,
    };
    let mut entries = Vec::with_capacity(slices);
    for slice in 0..slices {
        let lines = find_conflicting_lines(m, region, slice, needed);
        assert!(
            lines.len() == needed,
            "region too small: found {} of {needed} lines for slice {slice}",
            lines.len(),
        );
        let mut read_total = 0.0;
        let mut write_total = 0.0;
        for _ in 0..reps {
            // Write a fixed value into all lines, flush the hierarchy.
            for &pa in &lines {
                m.touch_write(core, pa);
            }
            for &pa in &lines {
                m.clflush(core, pa);
            }
            m.drain_write_backs(core);
            // Read all lines: fills the LLC set; only the last 8 stay in
            // the private caches.
            for &pa in &lines {
                m.touch_read(core, pa);
            }
            // Timed phase: re-read the first 8 — LLC hits in `slice`.
            let t0 = m.now(core);
            for &pa in &lines[..timed] {
                m.touch_read(core, pa);
            }
            let read = measure_interval(t0, m.now(core));
            read_total += read.cycles() as f64 / timed as f64;
            // Write phase (Fig. 5b): flush-refill, then time stores to the
            // first 8 lines.
            for &pa in &lines {
                m.clflush(core, pa);
            }
            for &pa in &lines {
                m.touch_read(core, pa);
            }
            m.drain_write_backs(core);
            let t0 = m.now(core);
            for &pa in &lines[..timed] {
                m.touch_write(core, pa);
            }
            let write = measure_interval(t0, m.now(core));
            write_total += write.cycles() as f64 / timed as f64;
        }
        entries.push(SliceAccessTime {
            slice,
            read_cycles: read_total / reps as f64,
            write_cycles: write_total / reps as f64,
        });
    }
    SliceLatencyProfile { core, entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn haswell() -> (Machine, Region) {
        let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
        let r = m.mem_mut().alloc(128 << 20, 1 << 20).unwrap();
        (m, r)
    }

    #[test]
    fn conflicting_lines_share_set_and_slice() {
        let (m, r) = haswell();
        let lines = find_conflicting_lines(&m, r, 3, 20);
        assert_eq!(lines.len(), 20);
        let set = lines[0].line() & 2047;
        for &pa in &lines {
            assert_eq!(m.slice_of(pa), 3);
            assert_eq!(pa.line() & 2047, set);
        }
    }

    #[test]
    fn profile_reproduces_ring_latencies() {
        // Fig. 5a: reads from core 0 must equal the interconnect latency
        // per slice (the methodology isolates pure LLC hits).
        let (mut m, r) = haswell();
        let prof = profile_access_times(&mut m, 0, r, 3);
        for e in &prof.entries {
            let expect = f64::from(m.llc_latency(0, e.slice));
            assert!(
                (e.read_cycles - expect).abs() < 0.5,
                "slice {}: measured {} expected {expect}",
                e.slice,
                e.read_cycles
            );
        }
    }

    #[test]
    fn profile_reads_are_bimodal_writes_flat() {
        let (mut m, r) = haswell();
        let prof = profile_access_times(&mut m, 0, r, 2);
        // Reads: ~20-cycle spread (paper: "save up to ~20 cycles").
        let saving = prof.max_read_saving();
        assert!((18.0..=24.0).contains(&saving), "saving {saving}");
        // Writes: flat across slices (Fig. 5b).
        let writes: Vec<f64> = prof.entries.iter().map(|e| e.write_cycles).collect();
        let lo = writes.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = writes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo < 1.0, "write latencies must not vary: {writes:?}");
    }

    #[test]
    fn closest_slice_matches_topology() {
        let (mut m, r) = haswell();
        for core in [0usize, 3, 7] {
            let prof = profile_access_times(&mut m, core, r, 2);
            assert_eq!(prof.closest(), m.closest_slice(core), "core {core}");
        }
    }

    #[test]
    fn skylake_profile_matches_mesh() {
        let mut m = Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(512 << 20));
        let r = m.mem_mut().alloc(256 << 20, 1 << 20).unwrap();
        let prof = profile_access_times(&mut m, 0, r, 2);
        assert_eq!(prof.entries.len(), 18);
        assert_eq!(prof.closest(), m.closest_slice(0));
        // Fig. 16 spread: ~30 cycles between nearest and farthest.
        assert!(prof.max_read_saving() >= 20.0);
    }

    #[test]
    fn latency_order_is_stable() {
        let (mut m, r) = haswell();
        let prof = profile_access_times(&mut m, 0, r, 2);
        let order = prof.by_read_latency();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 8);
        // Even slices (same ring) come before odd slices.
        assert!(order[..4].iter().all(|s| s % 2 == 0));
    }
}
