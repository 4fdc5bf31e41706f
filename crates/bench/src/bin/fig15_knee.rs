//! Fig. 15: 99th-percentile latency vs. achieved throughput for the
//! stateful chain, swept over offered loads, with the paper's piecewise
//! fit (linear below the knee, quadratic above) and R².
//!
//! Latency here includes the loopback component, as in the paper's
//! figure ("the values of tail latency include loopback cost").

use bench::Scale;
use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, SteeringKind};
use trafficgen::{ArrivalSchedule, CampusTrace, SizeMix};
use xstats::fit::piecewise_knee_fit;
use xstats::report::{f, Table};

/// Offered rates swept (Gbps). The paper sweeps 5-100.
const RATES: &[f64] = &[
    5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0,
    90.0, 100.0,
];

/// Loopback latency floor (the paper measures 495 us at 100 Gbps; at low
/// rates it is 9 us — modelled as rate-proportional LoadGen queueing).
fn loopback_ns(offered_gbps: f64) -> f64 {
    9_000.0 + offered_gbps / 100.0 * 486_000.0
}

/// One `(offered_gbps, achieved_gbps, p99_us)` sample per swept rate.
type KneePoint = (f64, f64, f64);

/// Returns `(offered, achieved, p99_us)` per swept rate.
fn sweep(
    headroom: HeadroomMode,
    scale: &Scale,
) -> Result<Vec<KneePoint>, Box<dyn std::error::Error>> {
    let mut out = Vec::with_capacity(RATES.len());
    for &gbps in RATES {
        let mut cfg = RunConfig::paper_defaults(
            ChainSpec::RouterNaptLb {
                routes: 3120,
                offload: true,
            },
            SteeringKind::FlowDirector,
            headroom,
        );
        cfg.loopback_ns = loopback_ns(gbps);
        cfg.execution = scale.execution(cfg.cores);
        let mut trace = CampusTrace::new(SizeMix::campus(), 10_000, 42);
        let mut sched = ArrivalSchedule::constant_gbps(gbps, 670.0);
        let res = run_experiment(cfg, &mut trace, &mut sched, scale.packets)?;
        let s = res.summary_with_loopback().ok_or("no latencies recorded")?;
        out.push((gbps, res.achieved_gbps, s.percentile(99.0) / 1e3));
    }
    Ok(out)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_args(&["packets"], 1, 60_000);
    println!(
        "Fig. 15 — p99 latency (incl. loopback) vs achieved throughput, {} pkts/point\n",
        scale.packets
    );
    let stock = sweep(HeadroomMode::Stock, &scale)?;
    let cd = sweep(
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
        &scale,
    )?;
    let mut t = Table::new([
        "Offered (Gbps)",
        "DPDK tput",
        "DPDK p99 (us)",
        "+CD tput",
        "+CD p99 (us)",
    ]);
    for (i, &rate) in RATES.iter().enumerate() {
        t.row([
            f(rate, 0),
            f(stock[i].1, 2),
            f(stock[i].2, 1),
            f(cd[i].1, 2),
            f(cd[i].2, 1),
        ]);
    }
    println!("{}", t.render());
    // The paper fits linear below its knee (37 Gbps on their testbed)
    // and quadratic above. Our simulated DuT keeps up until the NIC cap
    // bites near 72 Gbps, past which *achieved* throughput stops moving,
    // so the piecewise fit uses offered load as x (monotone); the knee
    // sits near 70 Gbps offered.
    const KNEE: f64 = 70.0;
    for (name, pts) in [("DPDK", &stock), ("CacheDirector", &cd)] {
        let xy: Vec<(f64, f64)> = pts.iter().map(|p| (p.0, p.2)).collect();
        match piecewise_knee_fit(&xy, KNEE) {
            Some(fit) => println!(
                "{name}-Fit: low  y = {:.2} + {:.4}x (R^2 = {:.3}); \
                 high y = {:.1} {:+.2}x {:+.4}x^2 (R^2 = {:.3})",
                fit.low.a, fit.low.b, fit.low.r2, fit.high.a, fit.high.b, fit.high.c, fit.high.r2
            ),
            None => println!("{name}-Fit: not enough points on one side of the knee"),
        }
    }
    println!(
        "\nPaper: DPDK low 15.61+0.2379x, high 1977-95.18x+1.158x^2 (R^2 0.995/0.993); \
         CacheDirector's curve sits slightly right — the knee shifts toward higher load."
    );
    bench::eprint_sched_totals("fig15_knee");
    Ok(())
}
