//! Table 1: Intel Xeon E5-2667 v3 cache specification.
//!
//! Regenerates the paper's Table 1 from the simulator's Haswell preset
//! and prints the Skylake (§6) geometry alongside for reference.

use llc_sim::machine::MachineConfig;
use xstats::report::Table;

fn row(t: &mut Table, name: &str, g: llc_sim::machine::CacheGeometry, index_hi: u32) {
    let size = g.capacity_bytes();
    let size_str = if size >= 1024 * 1024 {
        format!("{:.3} MB", size as f64 / (1024.0 * 1024.0))
    } else {
        format!("{} kB", size / 1024)
    };
    t.row([
        name.to_string(),
        size_str,
        g.ways.to_string(),
        g.sets.to_string(),
        format!("{index_hi}-6"),
    ]);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    bench::Cli::from_env(&[], &[]);
    for cfg in [
        MachineConfig::haswell_e5_2667_v3(),
        MachineConfig::skylake_gold_6134(),
    ] {
        println!("== {} ==", cfg.name);
        let mut t = Table::new(["Cache Level", "Size", "#Ways", "#Sets", "Index-bits[range]"]);
        row(
            &mut t,
            "LLC-Slice",
            cfg.llc_slice,
            5 + cfg.llc_slice.sets.trailing_zeros(),
        );
        row(&mut t, "L2", cfg.l2, 5 + cfg.l2.sets.trailing_zeros());
        row(&mut t, "L1", cfg.l1, 5 + cfg.l1.sets.trailing_zeros());
        println!("{}", t.render());
        println!(
            "cores={} slices={} LLC total={:.2} MB mode={:?}\n",
            cfg.cores,
            cfg.slices,
            cfg.llc_capacity_bytes() as f64 / (1024.0 * 1024.0),
            cfg.llc_mode,
        );
    }
    println!("Paper Table 1 (Haswell): LLC-Slice 2.5MB/20/2048/16-6, L2 256kB/8/512/14-6, L1 32kB/8/64/11-6.");
    bench::eprint_sched_totals("table01_cachespec");
    Ok(())
}
