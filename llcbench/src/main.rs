//! llcbench: the simulator's benchmark.
//!
//! ```text
//! llcbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]
//! ```
//!
//! Runs one workload as a series of fresh child processes (each its own
//! set-up, timed region and peak RSS) until `--seconds` is spent, checks
//! that every repeat's simulated results are bit-identical, and prints
//! every metric as `workload metric value unit n= q1= q3=`, then one JSON
//! object as the last line. `--trace 1` adds one traced child: seam
//! timers, layer counters and layer replays, and an attribution table.
//! See README.md.

mod child;
mod host;
mod parent;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: llcbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out PATH]\n  workloads: kvs_closed_get kvs_open_set nfv_chain \
                     tenants_storm";

/// Checked command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    /// Internal: run as a child (`run` or `traced`).
    pub child: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        out: None,
        child: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--smoke" {
            args.smoke = true;
            continue;
        }
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .ok_or_else(|| format!("{key} needs a value"))?
                .clone(),
        };
        let bad = |what: &str| format!("{key}: {what}, got {value:?}");
        match key {
            "--workload" => {
                args.workload = workloads::NAMES
                    .into_iter()
                    .find(|n| *n == value)
                    .ok_or_else(|| bad("unknown workload"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| bad("expected 1..=3600"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(&value)),
            "--child" if value == "run" || value == "traced" => args.child = Some(value),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("llcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.child.as_deref() {
        Some(mode) => child::main(&args, mode == "traced"),
        None => parent::main(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("llcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where runs leave their result and trace files: `llcbench/` under the
/// Cargo target directory.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("llcbench")
}
