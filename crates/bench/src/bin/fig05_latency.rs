//! Fig. 5: access time from core 0 to each LLC slice on Haswell —
//! (a) reads, (b) writes.
//!
//! Executes the §2.2 methodology (fill a cache set, flush, read the
//! conflicting lines, time re-reads of the first eight) on the simulated
//! Xeon E5-2667 v3 and prints cycles per slice for reads and writes.

use llc_sim::machine::{Machine, MachineConfig};
use slice_aware::latency::profile_access_times;
use xstats::report::{f, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = bench::Scale::from_args(&["runs"], 50, 0);
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
    let region = m.mem_mut().alloc(256 << 20, 1 << 20)?;
    let prof = profile_access_times(&mut m, 0, region, scale.runs);
    let mut t = Table::new(["Slice", "Read (cycles)", "Write (cycles)"]);
    for e in &prof.entries {
        t.row([
            e.slice.to_string(),
            f(e.read_cycles, 1),
            f(e.write_cycles, 1),
        ]);
    }
    println!(
        "Fig. 5 — access time from core 0, {} reps per slice\n",
        scale.runs
    );
    println!("{}", t.render());
    let even: Vec<f64> = prof
        .entries
        .iter()
        .filter(|e| e.slice % 2 == 0)
        .map(|e| e.read_cycles)
        .collect();
    let odd: Vec<f64> = prof
        .entries
        .iter()
        .filter(|e| e.slice % 2 == 1)
        .map(|e| e.read_cycles)
        .collect();
    println!(
        "read latency: same-ring slices (even) mean {:.1}, far-ring (odd) mean {:.1}, \
         max saving {:.1} cycles ({:.1} ns at 3.2 GHz)",
        even.iter().sum::<f64>() / even.len() as f64,
        odd.iter().sum::<f64>() / odd.len() as f64,
        prof.max_read_saving(),
        prof.max_read_saving() / 3.2
    );
    println!(
        "\nPaper Fig. 5a: bimodal reads ~34-56 cycles, closest slice saves up to ~20 \
         cycles (6.25 ns); Fig. 5b: writes flat (write-back confirms at L1)."
    );
    bench::eprint_sched_totals("fig05_latency");
    Ok(())
}
