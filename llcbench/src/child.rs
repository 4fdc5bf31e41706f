//! One child run: set up, run the timed region, report on stdout as
//! `key value...` lines for the parent to read.
//!
//! A traced child also builds the attribution table, checks that the
//! trace is well formed, and writes it as JSON lines.

use crate::workloads::{self, Ctx, Layers, Metric, Sizes};
use crate::{host, Args};
use std::process::ExitCode;
use std::time::Instant;

/// One row of the attribution table: a layer's share of the entry
/// point's host time.
struct Row {
    layer: &'static str,
    self_ns: f64,
    calls: u64,
    p50_ns: f64,
    p99_ns: f64,
    /// `seam` (timed per call), `replay` (replay cost x count), both, or
    /// `rest` for the unattributed remainder.
    source: &'static str,
}

/// Layers whose calls the benchmark times per call: they are not the
/// simulator, and their seam time is taken out of the entry point's.
const SEAM_LAYERS: [&str; 3] = ["trafficgen", "rte", "xstats"];

/// Splits the entry point's host time into layer rows: seam-timed
/// layers, replay estimates for the engine, kvs and llc-sim shares, and
/// the unattributed rest. The rows sum to `entry_ns` by construction.
fn attribute(entry_ns: f64, l: &Layers) -> Vec<Row> {
    let r = &l.replays;
    let c = &l.counts;
    let mut rows: Vec<Row> = SEAM_LAYERS
        .iter()
        .map(|&layer| {
            let seam = l.seams.iter().find(|(n, _)| *n == layer).map(|(_, s)| s);
            let (est_ns, est_calls) = if layer == "trafficgen" {
                (
                    c.requests as f64 * r.request_ns + c.arrivals as f64 * r.arrival_ns,
                    c.requests + c.arrivals,
                )
            } else {
                (0.0, 0)
            };
            Row {
                layer,
                self_ns: seam.map_or(0.0, |s| s.total_ns() as f64) + est_ns,
                calls: seam.map_or(0, |s| s.calls()) + est_calls,
                p50_ns: seam.map_or(0.0, |s| s.quantile_ns(0.50)),
                p99_ns: seam.map_or(0.0, |s| s.quantile_ns(0.99)),
                source: match (seam.is_some(), est_calls > 0) {
                    (true, true) => "seam+replay",
                    (true, false) => "seam",
                    (false, true) => "replay",
                    (false, false) => "-",
                },
            }
        })
        .collect();
    let replay = |layer, per_call: f64, calls: u64| Row {
        layer,
        self_ns: per_call * calls as f64,
        calls,
        p50_ns: 0.0,
        p99_ns: 0.0,
        source: "replay",
    };
    rows.push(replay("engine", r.dispatch_ns, c.offered));
    rows.push(Row {
        self_ns: r.get_ns * c.gets as f64 + r.set_ns * c.sets as f64,
        ..replay("kvs", 0.0, c.gets + c.sets)
    });
    // The 64 B request-header read every served operation makes.
    rows.push(replay("llc_sim", r.read_ns, c.served));
    let attributed: f64 = rows.iter().map(|r| r.self_ns).sum();
    rows.push(Row {
        source: "rest",
        self_ns: entry_ns - attributed,
        ..replay("unattributed", 0.0, 0)
    });
    rows
}

pub fn main(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let origin = Instant::now();
    let mut ctx = Ctx::new(origin, traced, args.seed, Sizes::new(args.smoke));
    let out = ctx.span("run", |c| workloads::run(args.workload, c));
    let timing = ctx.timing();
    let rss = host::peak_rss_mib().map_err(|e| format!("reading VmHWM: {e}"))?;

    let mut lines = vec![
        format!("setup_s {}", timing.setup_s),
        format!("cpu_ns {}", timing.cpu_ns),
        format!("reference_ns {}", timing.reference_ns),
        format!("ops {}", out.ops),
        format!("attempted {}", out.attempted),
        format!("failed {}", out.failed),
        format!("rss_mib {rss}"),
        format!("digest {}", out.digest),
    ];
    if let Err(e) = &out.check {
        lines.push(format!("error {e}"));
    }
    for m in &out.sim {
        lines.push(format!("sim {} {} {}", m.name, m.value, m.unit));
    }
    if let Some(l) = &out.layers {
        let entry_ns = ctx.spans.total_ns("entry") as f64;
        let rows = attribute(entry_ns, l);
        let sum: f64 = rows.iter().map(|r| r.self_ns).sum();
        if (sum - entry_ns).abs() > 1e-6 * entry_ns {
            lines.push(format!(
                "error attribution rows sum to {sum} ns, entry is {entry_ns} ns"
            ));
        }
        if let Err(e) = ctx.spans.check() {
            lines.push(format!("error trace: {e}"));
        }
        let seam_ns: f64 = rows
            .iter()
            .filter(|r| SEAM_LAYERS.contains(&r.layer))
            .map(|r| r.self_ns)
            .sum();
        let unattributed = rows.last().expect("the rest row").self_ns;
        let mut metrics: Vec<Metric> = l.insitu.clone();
        metrics.extend(l.replays.metrics.iter().cloned());
        metrics.push(Metric {
            name: "bench.entry_self_ns_per_op",
            value: (entry_ns - seam_ns) / out.ops as f64,
            unit: "ns",
        });
        metrics.push(Metric {
            name: "bench.unattributed_pct",
            value: 100.0 * unattributed / entry_ns,
            unit: "%",
        });
        for m in &metrics {
            lines.push(format!("layer {} {} {}", m.name, m.value, m.unit));
        }
        lines.push(format!(
            "table {:<13} {:>10} {:>7} {:>10} {:>10} {:>10} {:>10}  source",
            "layer", "self_ms", "share%", "calls", "ns/call", "p50_ns", "p99_ns"
        ));
        for r in &rows {
            let per_call = if r.calls > 0 {
                r.self_ns / r.calls as f64
            } else {
                0.0
            };
            lines.push(format!(
                "table {:<13} {:>10.1} {:>7.1} {:>10} {per_call:>10.1} {:>10.1} {:>10.1}  {}",
                r.layer,
                r.self_ns / 1e6,
                100.0 * r.self_ns / entry_ns,
                r.calls,
                r.p50_ns,
                r.p99_ns,
                r.source
            ));
        }
        lines.push(format!(
            "table {:<13} {:>10.1} {:>7.1}",
            "total",
            entry_ns / 1e6,
            100.0
        ));
        for (name, s) in l.seams.iter().filter(|(n, _)| !SEAM_LAYERS.contains(n)) {
            lines.push(format!(
                "note {name}: {} calls, p50 {:.0} ns, p99 {:.0} ns per call",
                s.calls(),
                s.quantile_ns(0.50),
                s.quantile_ns(0.99)
            ));
        }
        let path = crate::out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let run = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
        let seams: Vec<(&str, &crate::trace::Seam)> =
            l.seams.iter().map(|(n, s)| (*n, s)).collect();
        ctx.spans
            .write_jsonl(&path, &run, &seams)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        lines.push(format!("note trace written to {}", path.display()));
    }
    println!("{}", lines.join("\n"));
    Ok(ExitCode::SUCCESS)
}
