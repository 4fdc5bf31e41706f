//! Fig. 12: simple forwarding, 64 B packets at 1000 pps — end-to-end
//! latency percentiles without loopback, DPDK vs. DPDK + CacheDirector.
//!
//! The paper sends five thousand 64 B packets at low rate to expose the
//! pure per-packet effect with no queueing, over 50 runs.

use bench::Scale;
use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, SteeringKind};
use trafficgen::{ArrivalSchedule, CampusTrace};
use xstats::report::{f, Table};

fn percentile_rows(
    headroom: HeadroomMode,
    scale: &Scale,
) -> Result<[f64; 5], Box<dyn std::error::Error>> {
    let mut rows = Vec::with_capacity(scale.runs);
    for run in 0..scale.runs {
        let mut cfg = RunConfig::paper_defaults(ChainSpec::MacSwap, SteeringKind::Rss, headroom);
        cfg.seed ^= run as u64;
        cfg.execution = scale.execution(cfg.cores);
        let mut trace = CampusTrace::fixed_size(64, 1024, 100 + run as u64);
        let mut sched = ArrivalSchedule::constant_pps(1000.0);
        let res = run_experiment(cfg, &mut trace, &mut sched, scale.packets)?;
        rows.push(res.summary().ok_or("no latencies recorded")?.paper_row());
    }
    Ok(bench::median_rows(&rows))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args(10, 5000);
    println!(
        "Fig. 12 — 64 B @ 1000 pps, {} packets, median of {} runs (DuT latency, ns)\n",
        scale.packets, scale.runs
    );
    let stock = percentile_rows(HeadroomMode::Stock, &scale)?;
    let cd = percentile_rows(
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
        &scale,
    )?;
    let mut t = Table::new([
        "Percentile",
        "DPDK (ns)",
        "DPDK+CacheDirector (ns)",
        "Saving (ns)",
    ]);
    for (i, name) in ["75th", "90th", "95th", "99th", "Mean"].iter().enumerate() {
        t.row([
            name.to_string(),
            f(stock[i], 0),
            f(cd[i], 0),
            f(stock[i] - cd[i], 0),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Paper Fig. 12: CacheDirector cuts the higher percentiles by ~20% (~1 us per \
         packet on their testbed, where per-packet DuT latency is us-scale; here the \
         simulated DuT's bare service time is sub-us, so savings are the per-access \
         slice-distance cycles — same direction, smaller absolute value; see \
         EXPERIMENTS.md)."
    );
    bench::eprint_sched_totals("fig12_lowrate");
    Ok(())
}
