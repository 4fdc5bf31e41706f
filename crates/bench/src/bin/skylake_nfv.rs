//! §6 portability check: CacheDirector on the Skylake machine.
//!
//! The paper ports its code to the Xeon Gold 6134 and argues
//! CacheDirector "is still expected to be beneficial, but with lower
//! improvements — as the size of L2 has been increased", and that with
//! more slices than cores each core should target its preferred *set* of
//! slices (Table 4). This binary runs the Fig. 14 experiment on the
//! simulated Skylake part, sweeping how many preferred slices
//! CacheDirector targets (1 = primary only, 3 = primary + secondaries).

use bench::Scale;
use llc_sim::machine::{Machine, MachineConfig};
use nfv::runtime::{
    ChainSpec, HeadroomMode, RunConfig, RunResult, SetupError, SteeringKind, Testbed,
};
use trafficgen::{ArrivalSchedule, CampusTrace, SizeMix};
use xstats::report::{f, Table};

fn one(headroom: HeadroomMode, run: u64, scale: &Scale) -> Result<RunResult, SetupError> {
    let mut cfg = RunConfig::paper_defaults(
        ChainSpec::RouterNaptLb {
            routes: 3120,
            offload: true,
        },
        SteeringKind::FlowDirector,
        headroom,
    );
    cfg.seed ^= run;
    cfg.execution = scale.execution(cfg.cores);
    let m = Machine::new(MachineConfig::skylake_gold_6134().with_seed(cfg.seed));
    let mut tb = Testbed::on_machine(cfg, m)?;
    let mut trace = CampusTrace::new(SizeMix::campus(), 10_000, 42 + run);
    let mut sched = ArrivalSchedule::constant_gbps(100.0, 670.0);
    for _ in 0..scale.packets {
        let t = sched.next_arrival_ns();
        let spec = trace.next_packet();
        tb.offer(&spec.flow, spec.size, t);
    }
    Ok(tb.finish())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args(&["runs", "packets"], 5, 120_000);
    println!(
        "§6 — Router-NAPT-LB @ 100 Gbps on Skylake (Xeon Gold 6134); median of {} runs x {} pkts\n",
        scale.runs, scale.packets
    );
    let configs = [
        ("stock DPDK", HeadroomMode::Stock),
        (
            "CacheDirector (primary only)",
            HeadroomMode::CacheDirector {
                preferred_slices: 1,
            },
        ),
        (
            "CacheDirector (primary+secondary)",
            HeadroomMode::CacheDirector {
                preferred_slices: 3,
            },
        ),
    ];
    let mut t = Table::new([
        "Configuration",
        "p90 (us)",
        "p95 (us)",
        "p99 (us)",
        "Mean (us)",
    ]);
    let mut rows = Vec::new();
    for (name, headroom) in configs {
        let mut per_run = Vec::with_capacity(scale.runs);
        for r in 0..scale.runs as u64 {
            let res = one(headroom, r, &scale)?;
            per_run.push(res.summary().ok_or("no latencies recorded")?.paper_row());
        }
        let row = bench::median_rows(&per_run);
        t.row([
            name.to_string(),
            f(row[1] / 1e3, 1),
            f(row[2] / 1e3, 1),
            f(row[3] / 1e3, 1),
            f(row[4] / 1e3, 1),
        ]);
        rows.push((name, row));
    }
    println!("{}", t.render());
    let stock = rows[0].1;
    for (name, row) in &rows[1..] {
        println!(
            "{name}: p99 {:+.1}% vs stock",
            (row[3] - stock[3]) / stock[3] * 100.0
        );
    }
    println!(
        "\nPaper §6: CacheDirector remains beneficial on Skylake but less so than on \
         Haswell (larger L2 absorbs more of the header traffic; non-inclusive LLC); \
         targeting the Table-4 preferred set raises the placement rate on an \
         18-slice part."
    );
    bench::eprint_sched_totals("skylake_nfv");
    Ok(())
}
