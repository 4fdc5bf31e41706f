//! Fig. 7: aggregate operations per second vs. per-core array size,
//! 8 cores, normal vs. slice-aware — (a) reads, (b) writes.
//!
//! Each core works over its own array (slice-aware: the core's closest
//! slice); the paper sweeps 32 kB to 128 MB and finds slice-aware wins
//! while the per-core set fits a slice (≤ 2.5 MB), with both collapsing
//! to DRAM speed beyond the LLC.

use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::AccessKind;
use slice_aware::alloc::SliceAllocator;
use slice_aware::workload::{aggregate_ops_per_sec, random_access_multicore, warm_buffer};
use slice_aware::SliceBuffer;
use xstats::report::{f, Table};

/// The paper's x-axis (bytes). 128 MB per core x 8 needs more simulated
/// DRAM than useful; the sweep tops out at 32 MB where both curves have
/// long converged to DRAM speed.
const SIZES: &[usize] = &[
    32 << 10,
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
    8 << 20,
    16 << 20,
    32 << 20,
];

fn measure(m: &mut Machine, bufs: &[SliceBuffer], ops: usize, kind: AccessKind) -> f64 {
    for (c, b) in bufs.iter().enumerate() {
        warm_buffer(m, c, b);
    }
    let work: Vec<(usize, &SliceBuffer)> = bufs.iter().enumerate().collect();
    let totals = random_access_multicore(m, &work, ops, kind, 7);
    aggregate_ops_per_sec(&totals, ops, m.config().freq_ghz) / 1e6
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(&["packets"], 1, 20_000);
    println!(
        "Fig. 7 — aggregate MOPS, 8 cores, {} random ops/core per point\n",
        scale.packets
    );
    for kind in [AccessKind::Read, AccessKind::Write] {
        let mut t = Table::new(["Array size", "Normal (MOPS)", "Slice-aware (MOPS)", "Ratio"]);
        for &size in SIZES {
            // A fresh machine per point keeps cache state comparable.
            let mut m =
                Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(7 << 30));
            let region = m.mem_mut().alloc(6 << 30, 1 << 20)?;
            let mut alloc = SliceAllocator::new(region, m.slice_oracle());
            let lines = size / 64;
            let normal = (0..8)
                .map(|_| alloc.alloc_contiguous_lines(lines))
                .collect::<Result<Vec<SliceBuffer>, _>>()?;
            let aware = (0..8)
                .map(|c| {
                    let target = m.closest_slice(c);
                    alloc.alloc_lines(target, lines)
                })
                .collect::<Result<Vec<SliceBuffer>, _>>()?;
            let n = measure(&mut m, &normal, scale.packets, kind);
            let a = measure(&mut m, &aware, scale.packets, kind);
            let label = if size >= 1 << 20 {
                format!("{}M", size >> 20)
            } else {
                format!("{}K", size >> 10)
            };
            t.row([label, f(n, 1), f(a, 1), f(a / n, 3)]);
        }
        println!("{kind:?}:\n{}", t.render());
    }
    println!(
        "Paper Fig. 7: slice-aware above normal while the per-core set fits one slice \
         (2.5 MB); both drop to DRAM speed past the LLC and converge."
    );
    bench::eprint_sched_totals("fig07_ops");
    Ok(())
}
