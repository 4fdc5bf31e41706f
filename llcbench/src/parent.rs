//! The orchestrator: fresh child processes until the time budget is
//! spent, the determinism gate, the printed metrics and the JSON result.

use crate::stats::median_q1_q3;
use crate::{host, Args};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Untraced repeats at least, whatever the budget: a median and
/// quartiles need three, and the determinism gate needs two.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 50;

/// What one child printed.
#[derive(Debug, Default)]
struct Report {
    setup_s: f64,
    cpu_ns: f64,
    reference_ns: f64,
    ops: f64,
    attempted: u64,
    failed: u64,
    rss_mib: f64,
    digest: u64,
    sim: Vec<(String, f64, String)>,
    layers: Vec<(String, f64, String)>,
    table: Vec<String>,
    notes: Vec<String>,
    errors: Vec<String>,
}

impl Report {
    fn raw_ns_per_op(&self) -> f64 {
        self.cpu_ns / self.ops
    }

    /// CPU ns per op at nominal host speed (see `host::reference_loop_ns`).
    fn host_ns_per_op(&self) -> f64 {
        self.raw_ns_per_op() * host::REFERENCE_NOMINAL_NS / self.reference_ns
    }
}

fn parse_report(stdout: &str) -> Result<Report, String> {
    let mut r = Report::default();
    let num = |v: Option<&str>| -> Result<f64, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad number in {stdout:?}"))
    };
    for line in stdout.lines() {
        let mut f = line.split_whitespace();
        let key = f.next().unwrap_or("");
        let rest = line.get(key.len()..).unwrap_or("").trim().to_string();
        match key {
            "setup_s" => r.setup_s = num(f.next())?,
            "cpu_ns" => r.cpu_ns = num(f.next())?,
            "reference_ns" => r.reference_ns = num(f.next())?,
            "ops" => r.ops = num(f.next())?,
            "attempted" => r.attempted = num(f.next())? as u64,
            "failed" => r.failed = num(f.next())? as u64,
            "rss_mib" => r.rss_mib = num(f.next())?,
            "digest" => r.digest = f.next().and_then(|v| v.parse().ok()).ok_or("bad digest")?,
            "sim" | "layer" => {
                let name = f.next().ok_or("metric without a name")?.to_string();
                let value = num(f.next())?;
                let unit = f.next().ok_or("metric without a unit")?.to_string();
                let list = if key == "sim" {
                    &mut r.sim
                } else {
                    &mut r.layers
                };
                list.push((name, value, unit));
            }
            "table" => r.table.push(rest),
            "note" => r.notes.push(rest),
            "error" => r.errors.push(rest),
            _ => return Err(format!("unexpected child line {line:?}")),
        }
    }
    if r.ops <= 0.0 {
        return Err("child reported no operations".into());
    }
    Ok(r)
}

/// Runs one child (this executable, `--child run|traced`) to completion.
fn spawn(args: &Args, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", if traced { "traced" } else { "run" }])
        .args(["--workload", args.workload])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("starting a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("a {} child failed: {}", args.workload, out.status));
    }
    parse_report(&String::from_utf8_lossy(&out.stdout))
}

/// Checks every repeat against the first: bit-identical simulated
/// metrics and digest, and no workload check failed.
fn gate(reps: &[Report], traced: Option<&Report>) -> Vec<String> {
    let base = &reps[0];
    let bits = |r: &Report| -> Vec<(String, u64)> {
        r.sim
            .iter()
            .map(|(n, v, _)| (n.clone(), v.to_bits()))
            .collect()
    };
    let mut problems = Vec::new();
    for (i, r) in reps.iter().chain(traced).enumerate() {
        let label = if i < reps.len() {
            format!("repeat {}", i + 1)
        } else {
            "the traced run".to_string()
        };
        if r.digest != base.digest || bits(r) != bits(base) {
            problems.push(format!("{label}: simulated results differ from repeat 1"));
        }
        problems.extend(r.errors.iter().map(|e| format!("{label}: {e}")));
    }
    problems
}

fn json_metrics(metrics: &[(String, f64, String)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // JSON has no NaN or infinity; the gate fails such a run anyway.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

pub fn main(args: &Args) -> Result<ExitCode, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // A traced run spends half its budget on untraced repeats, the
    // baseline of the trace overhead.
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let mut reps = Vec::new();
    while reps.len() < MAX_REPEATS {
        reps.push(spawn(args, false)?);
        let per_repeat = start.elapsed() / reps.len() as u32;
        if reps.len() >= MIN_REPEATS && start.elapsed() + per_repeat > untraced_budget {
            break;
        }
    }
    let traced = if args.trace {
        Some(spawn(args, true)?)
    } else {
        None
    };
    let mut problems = gate(&reps, traced.as_ref());

    let n = reps.len();
    let w = args.workload;
    let host: Vec<f64> = reps.iter().map(Report::host_ns_per_op).collect();
    let e2e = [
        (
            "setup_s",
            reps.iter().map(|r| r.setup_s).collect::<Vec<_>>(),
            "s",
        ),
        ("host_ns_per_op", host.clone(), "ns"),
        (
            "peak_rss_mb",
            reps.iter().map(|r| r.rss_mib).collect(),
            "MiB",
        ),
    ];
    let mut end_to_end: Vec<(String, f64, String)> = Vec::new();
    for (name, values, unit) in &e2e {
        let (median, q1, q3) = median_q1_q3(values);
        println!("{w} {name} {median} {unit} n={n} q1={q1} q3={q3}");
        end_to_end.push((name.to_string(), median, unit.to_string()));
    }
    let raw: Vec<f64> = reps.iter().map(Report::raw_ns_per_op).collect();
    let (median, q1, q3) = median_q1_q3(&raw);
    println!("{w} host_ns_per_op_unscaled {median} ns n={n} q1={q1} q3={q3}");
    for (name, value, unit) in &reps[0].sim {
        println!("{w} {name} {value} {unit} n={n} q1={value} q3={value}");
    }
    println!("{w} sim_digest {:016x} n={n}", reps[0].digest);
    let sim_mops = reps[0]
        .sim
        .iter()
        .find(|(name, ..)| name == "sim_mops")
        .ok_or("the child reported no sim_mops")?;
    end_to_end.push(sim_mops.clone());

    let metrics = match &traced {
        None => end_to_end,
        Some(t) => {
            let (untraced, ..) = median_q1_q3(&host);
            let overhead = 100.0 * (t.host_ns_per_op() - untraced) / untraced;
            let mut layers = t.layers.clone();
            layers.push(("bench.trace_overhead_pct".into(), overhead, "%".into()));
            println!("\n{w}: attribution of the entry point's host time (traced run)");
            for line in &t.table {
                println!("{line}");
            }
            for note in &t.notes {
                println!("{w}: {note}");
            }
            println!();
            for (name, value, unit) in &layers {
                println!("{w} {name} {value} {unit} n=1");
            }
            layers
        }
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("{name} is not finite"));
        }
    }
    for p in &problems {
        eprintln!("llcbench: {w}: {p}");
    }
    let correct = problems.is_empty();
    let attempted: u64 = reps
        .iter()
        .chain(traced.as_ref())
        .map(|r| r.attempted)
        .sum();
    let failed: u64 = reps.iter().chain(traced.as_ref()).map(|r| r.failed).sum();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    let path = args.out.clone().unwrap_or_else(|| {
        crate::out_dir().join(format!(
            "{w}-{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        ))
    });
    let file = format!(
        "{{\"workload\": \"{w}\", \"seed\": {}, \"repeats\": {n}, \"sim_digest\": \"{:016x}\", \
         \"sim\": {}, \"host_ns_per_op\": {host:?}, \"host_ns_per_op_unscaled\": {raw:?}, \
         \"result\": {result}}}\n",
        args.seed,
        reps[0].digest,
        json_metrics(&reps[0].sim),
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
