//! Shared support for the experiment binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! that regenerates it (see DESIGN.md §4 for the index and EXPERIMENTS.md
//! for recorded paper-vs-measured numbers). This module carries the
//! common bits: the one command-line parser, scale arguments and
//! median-of-runs aggregation.

use std::str::FromStr;

use xstats::Summary;

/// The flags every binary accepts: `--smoke` (tiny scale, the one every
/// golden snapshot is recorded at) and `--parallel` (engine workers on
/// OS threads; bit-identical output).
const COMMON_FLAGS: [&str; 2] = ["--smoke", "--parallel"];

/// A binary's command line, checked against what the binary declares:
/// its positionals by name, in order, and its flags besides
/// [`COMMON_FLAGS`]. A flag spec reads `--name` (a switch),
/// `--name=VALUE` (the value is required) or `--name[=VALUE]` (it is
/// optional). Positionals are the arguments that do not start with
/// `--`, counted wherever they appear.
///
/// Bad input is never replaced by a default: an undeclared flag, a
/// value or positional that does not parse or is out of range, or one
/// positional too many prints the offending argument and the usage line
/// on stderr and exits with code 2.
#[derive(Debug)]
pub struct Cli {
    usage: String,
    names: &'static [&'static str],
    positionals: Vec<String>,
    /// Each flag given: its name (up to any `=`) and its value.
    flags: Vec<(String, Option<String>)>,
}

impl Cli {
    /// Parses the process arguments; exits with code 2 on bad input.
    pub fn from_env(positionals: &'static [&'static str], flags: &[&str]) -> Self {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        let bin = bin.rsplit('/').next().unwrap_or_default();
        Self::parse(bin, args, positionals, flags).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    /// Parses `args` (program name excluded) for binary `bin`; the
    /// error is the message [`Cli::from_env`] prints.
    fn parse(
        bin: &str,
        args: impl IntoIterator<Item = String>,
        positionals: &'static [&'static str],
        flags: &[&str],
    ) -> Result<Self, String> {
        let specs: Vec<&str> = COMMON_FLAGS.iter().chain(flags).copied().collect();
        let usage: Vec<String> = positionals
            .iter()
            .chain(&specs)
            .map(|p| format!("[{p}]"))
            .collect();
        let mut cli = Self {
            usage: format!("usage: {bin} {}", usage.join(" ")),
            names: positionals,
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        for arg in args {
            if !arg.starts_with("--") {
                if cli.positionals.len() == positionals.len() {
                    return Err(cli.error(&format!("unexpected positional `{arg}`")));
                }
                cli.positionals.push(arg);
                continue;
            }
            let (name, value) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let declared = specs
                .iter()
                .find(|s| s.split(['=', '[']).next() == Some(name));
            let ok =
                declared.is_some_and(|s| s.contains("[=") || s.contains('=') == value.is_some());
            if !ok {
                return Err(cli.error(&format!("unexpected argument `{arg}`")));
            }
            cli.flags.push((name.to_string(), value));
        }
        Ok(cli)
    }

    /// Whether flag `name` (e.g. `"--chaos"`) was given, with or
    /// without a value.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value given to flag `name` (e.g. `"--cores"`), if any.
    /// Exits with code 2 when it does not parse as `T`, or when `valid`
    /// rejects it, naming `expected`.
    pub fn value_where<T: FromStr>(
        &self,
        name: &str,
        expected: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let raw = self.flags.iter().find(|(n, _)| n == name)?.1.as_deref()?;
        let what = format!("`{name}={raw}`");
        let value = self.parse_or_exit(raw, &what);
        if !valid(&value) {
            self.exit(&format!("{what} is out of range: expected {expected}"));
        }
        Some(value)
    }

    /// The positional declared as `name`, if given. Exits with code 2
    /// when it does not parse as `T`.
    pub fn positional<T: FromStr>(&self, name: &str) -> Option<T> {
        let i = self.names.iter().position(|&n| n == name)?;
        let raw = self.positionals.get(i)?;
        Some(self.parse_or_exit(raw, &format!("[{name}] `{raw}`")))
    }

    /// The experiment scale: positionals `runs` and `packets` when
    /// declared and given, else the defaults; `--smoke` overrides both
    /// (see [`Scale`]).
    pub fn scale(&self, default_runs: usize, default_packets: usize) -> Scale {
        let runs = self.positional("runs").unwrap_or(default_runs);
        let packets = self.positional("packets").unwrap_or(default_packets);
        let smoke = self.has("--smoke");
        Scale {
            runs: if smoke { 1 } else { runs },
            packets: if smoke {
                default_packets.min(Scale::SMOKE_PACKETS)
            } else {
                packets
            },
            smoke,
            parallel: self.has("--parallel"),
        }
    }

    /// The KVS binaries' store size as a power of two: positional
    /// `log2_keys`, by default 14 under `--smoke` and 21 otherwise.
    /// Exits with code 2 above 24, the paper's 2^24-value (1 GB) store:
    /// the simulated DRAM is a real allocation about nine times the
    /// store.
    pub fn log2_keys(&self) -> u32 {
        let default = if self.has("--smoke") { 14 } else { 21 };
        let log2 = self.positional("log2_keys").unwrap_or(default);
        if log2 > 24 {
            self.exit(&format!("[log2_keys] {log2} is above 24"));
        }
        log2
    }

    fn parse_or_exit<T: FromStr>(&self, raw: &str, what: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| self.exit(&format!("cannot parse {what}")))
    }

    fn error(&self, msg: &str) -> String {
        format!("error: {msg}\n{}", self.usage)
    }

    fn exit(&self, msg: &str) -> ! {
        eprintln!("{}", self.error(msg));
        std::process::exit(2)
    }
}

/// Experiment scale, from the command line:
/// `<binary> [runs] [packets] [--smoke] [--parallel]`.
///
/// Every binary has defaults sized to finish in seconds; passing larger
/// values tightens the statistics toward the paper's 50-run protocol.
/// Passing `--smoke` anywhere overrides both with tiny values — the CI
/// smoke stage uses it to prove every figure binary still runs end to
/// end without paying for statistics. Passing `--parallel` anywhere
/// makes the engine-backed experiments execute their workers on OS
/// threads ([`engine::Execution::Parallel`]); results are bit-identical
/// to serial by construction, only the wall clock changes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Independent repetitions (the paper uses 50).
    pub runs: usize,
    /// Packets (or operations) per run.
    pub packets: usize,
    /// `--smoke` was passed: binaries should also shrink any scale
    /// knobs of their own (store sizes, sweep points).
    pub smoke: bool,
    /// `--parallel` was passed: engine-backed experiments run workers
    /// on OS threads. Binaries without an engine accept and ignore it.
    pub(crate) parallel: bool,
}

impl Scale {
    /// The scale of a binary whose command line is just
    /// `[runs] [packets] [--smoke] [--parallel]`, with the given
    /// defaults (see [`Cli::scale`]); exits with code 2 on anything
    /// else.
    pub fn from_args(default_runs: usize, default_packets: usize) -> Self {
        Cli::from_env(&["runs", "packets"], &[]).scale(default_runs, default_packets)
    }

    /// The execution mode this scale selects for an engine with
    /// `workers` workers: [`engine::Execution::Serial`] by default, one
    /// OS thread per worker under `--parallel`.
    pub fn execution(&self, workers: usize) -> engine::Execution {
        if self.parallel {
            engine::Execution::Parallel {
                threads: workers.max(1),
            }
        } else {
            engine::Execution::Serial
        }
    }

    /// Packets per run under `--smoke`.
    pub(crate) const SMOKE_PACKETS: usize = 2_000;
}

/// Prints the process-wide engine scheduler totals
/// ([`engine::sched_totals`]) as one `[sched]` line — to **stderr**, so
/// the committed golden stdout of every figure stays byte-stable while
/// the empty-epoch tax is still visible in every run's output. Binaries
/// that never construct an engine print zeros, which is the honest
/// number.
pub fn eprint_sched_totals(figure: &str) {
    let t = engine::sched_totals();
    let eff = if t.epochs_dispatched == 0 {
        100.0
    } else {
        100.0 * t.epochs_with_work as f64 / t.epochs_dispatched as f64
    };
    eprintln!(
        "[sched] {figure}: epochs_dispatched={} epochs_with_work={} \
         events_processed={} epoch_efficiency={eff:.1}%",
        t.epochs_dispatched, t.epochs_with_work, t.events_processed
    );
}

/// Median of each percentile row across runs: the paper's "values show
/// the median of 50 runs" aggregation for [p75, p90, p95, p99, mean].
pub fn median_rows(rows: &[[f64; 5]]) -> [f64; 5] {
    assert!(!rows.is_empty(), "need at least one run");
    let mut out = [0.0; 5];
    for (i, slot) in out.iter_mut().enumerate() {
        let col: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        *slot = Summary::from_samples(col).expect("non-empty").median();
    }
    out
}

/// Per-percentile improvement `base - new` in the same unit.
pub fn improvement(base: &[f64; 5], new: &[f64; 5]) -> [f64; 5] {
    let mut out = [0.0; 5];
    for i in 0..5 {
        out[i] = base[i] - new[i];
    }
    out
}

/// Per-percentile speedup in percent (Fig. 1's y-axis).
pub fn speedup_percent(base: &[f64; 5], new: &[f64; 5]) -> [f64; 5] {
    let mut out = [0.0; 5];
    for i in 0..5 {
        out[i] = xstats::percentile::speedup_percent(base[i], new[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: [&str; 3] = ["--cores=N", "--chaos", "--churn[=EPOCH]"];

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args = args.iter().map(|a| a.to_string());
        Cli::parse("fig", args, &["runs", "packets"], &FLAGS)
    }

    #[test]
    fn cli_counts_positionals_around_flags() {
        let cli = parse(&["--cores=4", "3", "--chaos", "700", "--churn"]).unwrap();
        assert_eq!(cli.positional::<usize>("runs"), Some(3));
        assert_eq!(cli.positional::<usize>("packets"), Some(700));
        let any = |_: &usize| true;
        assert_eq!(cli.value_where("--cores", "", any), Some(4));
        assert!(cli.has("--chaos") && cli.has("--churn") && !cli.has("--smoke"));
        assert_eq!(cli.value_where("--churn", "", any), None);
        let scale = cli.scale(1, 100);
        assert_eq!((scale.runs, scale.packets, scale.parallel), (3, 700, false));
        let smoke = parse(&["3", "700000", "--smoke", "--churn=64"]).unwrap();
        assert_eq!(smoke.value_where("--churn", "", any), Some(64));
        let scale = smoke.scale(1, 700_000);
        assert_eq!((scale.runs, scale.packets), (1, Scale::SMOKE_PACKETS));
    }

    #[test]
    fn cli_rejects_what_it_does_not_declare() {
        for bad in [
            &["--frobnicate"][..],
            &["--chaos=1"],
            &["--cores"],
            &["--smoke=yes"],
            &["1", "2", "3"],
        ] {
            let err = parse(bad).unwrap_err();
            let arg = bad.last().unwrap();
            assert!(err.contains(&format!("`{arg}`")), "{bad:?}: {err}");
            assert!(
                err.ends_with(
                    "usage: fig [runs] [packets] [--smoke] [--parallel] \
                     [--cores=N] [--chaos] [--churn[=EPOCH]]"
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn median_rows_takes_per_column_median() {
        let rows = [
            [1.0, 10.0, 100.0, 1000.0, 5.0],
            [3.0, 30.0, 300.0, 3000.0, 15.0],
            [2.0, 20.0, 200.0, 2000.0, 10.0],
        ];
        assert_eq!(median_rows(&rows), [2.0, 20.0, 200.0, 2000.0, 10.0]);
    }

    #[test]
    fn improvement_and_speedup() {
        let base = [100.0, 100.0, 100.0, 100.0, 100.0];
        let new = [80.0, 90.0, 95.0, 99.0, 100.0];
        assert_eq!(improvement(&base, &new)[0], 20.0);
        assert_eq!(speedup_percent(&base, &new)[0], 20.0);
        assert_eq!(speedup_percent(&base, &new)[4], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn median_rows_rejects_empty() {
        median_rows(&[]);
    }
}
