//! Fig. 17: slice isolation vs. Intel CAT way isolation under a noisy
//! neighbour (Skylake, §7).
//!
//! Three scenarios, reads and writes: NoCAT (shared LLC), 2 ways isolated
//! via CAT (2/11 ≈ 18% of the LLC), and slice-0 isolation via slice-aware
//! allocation (1/18 ≈ 5.6% of the LLC).

use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::AccessKind;
use slice_aware::isolation::{setup_isolation, IsolationScenario};
use slice_aware::workload::{random_access, warm_buffer};
use xstats::report::{f, Table};

/// Paper: 2 MB = three-fourths of a slice plus the L2 on the Gold 6134.
/// Under an LRU L2 the 2 MB set does not split cleanly between L2 and the
/// slice (lines rotate through both), so a second, fits-one-slice size is
/// reported as well; see EXPERIMENTS.md.
const MAIN_SIZES: &[(&str, usize)] = &[
    ("2 MB (paper)", 2 * 1024 * 1024),
    ("1.25 MB (fits slice)", 1_310_720),
];
/// The neighbour streams through more than the whole LLC (24.75 MB).
const NOISE_BYTES: usize = 48 * 1024 * 1024;

fn run_scenario(
    scenario: IsolationScenario,
    kind: AccessKind,
    ops: usize,
    main_bytes: usize,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut m = Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(2 << 30));
    let region = m.mem_mut().alloc(1 << 30, 1 << 20)?;
    let mut alloc = slice_aware::alloc::SliceAllocator::new(region, m.slice_oracle());
    let setup = setup_isolation(&mut m, &mut alloc, scenario, 0, 1, main_bytes, NOISE_BYTES)?;
    warm_buffer(&mut m, 0, &setup.main_buf);
    warm_buffer(&mut m, 1, &setup.noise_buf);
    // Interleave: the neighbour runs 4x hotter than the main app.
    let quantum = 50;
    let mut total = 0u64;
    let mut done = 0;
    let mut round = 0u64;
    while done < ops {
        let n = quantum.min(ops - done);
        total += random_access(&mut m, 0, &setup.main_buf, n, kind, 300 + round);
        random_access(
            &mut m,
            1,
            &setup.noise_buf,
            4 * quantum,
            AccessKind::Read,
            700 + round,
        );
        done += n;
        round += 1;
    }
    // Execution time in seconds at 3.2 GHz, scaled per 10k ops like the
    // paper's absolute plot.
    Ok(total as f64 / (3.2e9) * (10_000.0 / ops as f64))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(&["packets"], 1, 40_000);
    let scenarios = [
        ("NoCAT", IsolationScenario::NoCat),
        ("2W Isolated", IsolationScenario::WayIsolated { ways: 2 }),
        (
            "Slice-0 Isolated",
            IsolationScenario::SliceIsolated { slice: 0 },
        ),
    ];
    for &(size_name, main_bytes) in MAIN_SIZES {
        println!(
            "Fig. 17 — main app {size_name} vs noisy neighbour (Skylake), {} ops/scenario\n",
            scale.packets
        );
        let mut results = Vec::new();
        let mut t = Table::new(["Scenario", "Read (ms/10k ops)", "Write (ms/10k ops)"]);
        for (name, sc) in scenarios {
            let r = run_scenario(sc, AccessKind::Read, scale.packets, main_bytes)?;
            let w = run_scenario(sc, AccessKind::Write, scale.packets, main_bytes)?;
            results.push((name, r, w));
            t.row([name.to_string(), f(r * 1e3, 3), f(w * 1e3, 3)]);
        }
        println!("{}", t.render());
        let way = results[1];
        let slice = results[2];
        println!(
            "slice isolation vs 2-way CAT: read {:+.1}%, write {:+.1}%\n",
            (way.1 - slice.1) / way.1 * 100.0,
            (way.2 - slice.2) / way.2 * 100.0
        );
    }
    println!(
        "Paper Fig. 17: slice isolation beats 2-way CAT by ~11.5% (read) and ~11.8% \
         (write) while using 5.6% of the LLC instead of 18%. Under a strict-LRU L2 \
         the paper's 2 MB set overflows the 1.375 MB slice (lines rotate between L2 \
         and LLC rather than splitting), which is why the fits-one-slice size is \
         where the paper's ordering appears; see EXPERIMENTS.md."
    );
    bench::eprint_sched_totals("fig17_isolation");
    Ok(())
}
