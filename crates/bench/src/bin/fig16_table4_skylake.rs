//! Fig. 16 + Table 4: Skylake (Xeon Gold 6134) slice access times and
//! per-core preferred slices.
//!
//! Runs the same §2.2 methodology on the simulated Skylake machine —
//! through polling only, since the 18-slice hash function is unknown
//! (§6) — and derives every core's primary and secondary slices.

use llc_sim::machine::{Machine, MachineConfig};
use slice_aware::latency::profile_access_times;
use slice_aware::placement::PlacementPolicy;
use xstats::report::{f, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(&["runs"], 10, 0);
    let mut m = Machine::new(MachineConfig::skylake_gold_6134().with_dram_capacity(1 << 30));
    let region = m.mem_mut().alloc(512 << 20, 1 << 20)?;

    // Fig. 16: access times from core 0.
    let prof0 = profile_access_times(&mut m, 0, region, scale.runs);
    let mut t = Table::new(["Slice", "Read (cycles)"]);
    for e in &prof0.entries {
        t.row([e.slice.to_string(), f(e.read_cycles, 1)]);
    }
    println!("Fig. 16 — access time from core 0 (Skylake, 18 slices)\n");
    println!("{}", t.render());
    println!(
        "spread: {:.1} cycles (paper Fig. 16: roughly 45..75 cycles)\n",
        prof0.max_read_saving()
    );

    // Table 4: per-core primary/secondary slices from measured profiles.
    let profiles: Vec<_> = (0..8)
        .map(|c| profile_access_times(&mut m, c, region, scale.runs))
        .collect();
    let policy = PlacementPolicy::from_profiles(&profiles, 0.5);
    let mut t4 = Table::new(["Core", "Primary slice", "Secondary slices"]);
    for c in 0..8 {
        let secs: Vec<String> = policy
            .secondary(c)
            .iter()
            .map(|s| format!("S{s}"))
            .collect();
        t4.row([
            format!("C{c}"),
            format!("S{}", policy.primary(c)),
            secs.join(", "),
        ]);
    }
    println!("Table 4 — preferable slices per core (measured by polling)\n");
    println!("{}", t4.render());
    println!(
        "Paper Table 4: primaries S0 S4 S8 S12 S10 S14 S3 S15; secondaries \
         {{S2,S6}} {{S1}} {{S11}} {{S13}} {{S7,S9}} {{S16}} {{S5}} {{S17}}."
    );
    let expect = [0usize, 4, 8, 12, 10, 14, 3, 15];
    let ok = (0..8).all(|c| policy.primary(c) == expect[c]);
    println!(
        "primary-slice agreement with the paper: {}",
        if ok { "exact" } else { "DIVERGES" }
    );
    bench::eprint_sched_totals("fig16_table4_skylake");
    Ok(())
}
