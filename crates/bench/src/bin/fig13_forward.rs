//! Fig. 13 + Table 3 (row 1): simple forwarding on 8 cores, campus-mix
//! packets at 100 Gbps with RSS — latency percentiles, per-percentile
//! improvement, and throughput.

use bench::Scale;
use nfv::runtime::{
    run_experiment, ChainSpec, HeadroomMode, RunConfig, RunResult, SetupError, SteeringKind,
};
use trafficgen::{ArrivalSchedule, CampusTrace, SizeMix};
use xstats::report::{f, Table};

fn one(headroom: HeadroomMode, run: u64, scale: &Scale) -> Result<RunResult, SetupError> {
    let mut cfg = RunConfig::paper_defaults(ChainSpec::MacSwap, SteeringKind::Rss, headroom);
    cfg.seed ^= run;
    cfg.execution = scale.execution(cfg.cores);
    let mut trace = CampusTrace::new(SizeMix::campus(), 10_000, 42 + run);
    let mut sched = ArrivalSchedule::constant_gbps(100.0, 670.0);
    run_experiment(cfg, &mut trace, &mut sched, scale.packets)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args(10, 150_000);
    println!(
        "Fig. 13 — forwarding, campus mix @ 100 Gbps, RSS, 8 cores; median of {} runs x {} pkts\n",
        scale.runs, scale.packets
    );
    let mut rows_stock = Vec::new();
    let mut rows_cd = Vec::new();
    let mut tput_stock = Vec::new();
    let mut tput_cd = Vec::new();
    for run in 0..scale.runs as u64 {
        let s = one(HeadroomMode::Stock, run, &scale)?;
        rows_stock.push(s.summary().ok_or("no latencies recorded")?.paper_row());
        tput_stock.push(s.achieved_gbps);
        let c = one(
            HeadroomMode::CacheDirector {
                preferred_slices: 1,
            },
            run,
            &scale,
        )?;
        rows_cd.push(c.summary().ok_or("no latencies recorded")?.paper_row());
        tput_cd.push(c.achieved_gbps);
    }
    let stock = bench::median_rows(&rows_stock);
    let cd = bench::median_rows(&rows_cd);
    let imp = bench::improvement(&stock, &cd);
    let mut t = Table::new([
        "Percentile",
        "DPDK (us)",
        "DPDK+CacheDirector (us)",
        "Improvement (us)",
    ]);
    for (i, name) in ["75th", "90th", "95th", "99th", "Mean"].iter().enumerate() {
        t.row([
            name.to_string(),
            f(stock[i] / 1e3, 1),
            f(cd[i] / 1e3, 1),
            f(imp[i] / 1e3, 1),
        ]);
    }
    println!("{}", t.render());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "Table 3 row 1 — throughput: DPDK {:.2} Gbps, +CacheDirector {:.2} Gbps \
         (improvement {:.0} Mbps)",
        mean(&tput_stock),
        mean(&tput_cd),
        (mean(&tput_cd) - mean(&tput_stock)) * 1e3
    );
    println!(
        "\nPaper: throughput 76.58 Gbps (+31 Mbps with CacheDirector); tail improvements \
         grow with the percentile under RSS."
    );
    bench::eprint_sched_totals("fig13_forward");
    Ok(())
}
