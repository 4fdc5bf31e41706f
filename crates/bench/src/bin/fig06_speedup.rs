//! Fig. 6: average speedup of slice-aware vs. normal allocation, per
//! target slice — (a) reads, (b) writes.
//!
//! The §3 experiment: allocate 1.375 MB that maps to one slice, touch it
//! uniformly at random 10 000 times per run, compare against the same
//! loop over contiguous ("normal") memory.

use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::AccessKind;
use slice_aware::alloc::SliceAllocator;
use slice_aware::workload::{random_access, warm_buffer};
use xstats::report::{f, Table};

/// The paper's buffer: half a slice plus (half) the L2 ≈ 1.375 MB.
const BUF_BYTES: usize = 1_441_792;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(20, 10_000);
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(1 << 30));
    let region = m.mem_mut().alloc(512 << 20, 1 << 20)?;
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let lines = BUF_BYTES / 64;
    let normal = alloc.alloc_contiguous_lines(lines)?;
    let slice_bufs = (0..8)
        .map(|s| alloc.alloc_lines(s, lines))
        .collect::<Result<Vec<_>, _>>()?;

    let measure = |m: &mut Machine, buf: &slice_aware::SliceBuffer, kind| -> f64 {
        warm_buffer(m, 0, buf);
        let mut total = 0u64;
        for run in 0..scale.runs {
            total += random_access(m, 0, buf, scale.packets, kind, 1000 + run as u64);
            m.drain_write_backs(0);
        }
        total as f64 / scale.runs as f64
    };

    println!(
        "Fig. 6 — {} runs x {} random ops over a {:.3} MB buffer (core 0)\n",
        scale.runs,
        scale.packets,
        BUF_BYTES as f64 / (1024.0 * 1024.0)
    );
    for kind in [AccessKind::Read, AccessKind::Write] {
        let base = measure(&mut m, &normal, kind);
        let mut t = Table::new(["Slice", "Avg speedup (%)", "cycles/run"]);
        for (s, buf) in slice_bufs.iter().enumerate() {
            let cyc = measure(&mut m, buf, kind);
            t.row([s.to_string(), f((base - cyc) / base * 100.0, 2), f(cyc, 0)]);
        }
        println!(
            "{:?}: normal allocation baseline {:.0} cycles/run\n{}",
            kind,
            base,
            t.render()
        );
    }
    println!(
        "Paper Fig. 6: close slices (0/2/4/6 from core 0) show positive speedup, far \
         slices negative; the effect appears for writes only under sustained load \
         (write-back accumulation)."
    );
    bench::eprint_sched_totals("fig06_speedup");
    Ok(())
}
