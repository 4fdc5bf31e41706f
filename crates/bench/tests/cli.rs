//! Command-line contract of the figure binaries: positionals are
//! counted among the non-flag arguments wherever they appear, and bad
//! input exits with code 2 instead of running with a default.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"))
}

/// Asserts a clean exit and returns stdout.
fn stdout_of(exe: &str, args: &[&str]) -> String {
    let out = run(exe, args);
    assert!(
        out.status.success(),
        "{exe} {args:?} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure output is UTF-8")
}

/// Asserts exit code 2, no stdout, and a stderr naming `offending`.
fn assert_rejected(exe: &str, args: &[&str], offending: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{exe} {args:?}\nstderr:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{exe} {args:?} ran anyway");
    assert!(
        stderr.contains(offending) && stderr.contains("usage:"),
        "{exe} {args:?}: stderr must name `{offending}` and the usage\n{stderr}"
    );
}

const KVS_PROBE: &str = env!("CARGO_BIN_EXE_kvs_probe");
const FIG08_KVS: &str = env!("CARGO_BIN_EXE_fig08_kvs");
const FIG_SCALE_KVS: &str = env!("CARGO_BIN_EXE_fig_scale_kvs");

#[test]
fn log2_keys_is_the_third_positional_after_smoke() {
    // Flags do not take positional slots: `100` is `packets`.
    let out = stdout_of(KVS_PROBE, &["--smoke", "1", "100", "12"]);
    assert!(out.starts_with("store: 2^12 values"), "{out}");
}

#[test]
fn log2_keys_is_the_third_positional_between_flags() {
    // A positional after a flag still counts: `12` beats the smoke
    // default of 14.
    let out = stdout_of(KVS_PROBE, &["1", "100", "--smoke", "12"]);
    assert!(out.starts_with("store: 2^12 values"), "{out}");
}

#[test]
fn unparseable_value_and_unknown_flag_exit_2() {
    assert_rejected(
        FIG08_KVS,
        &["--smoke", "--zipf=garbage", "--frobnicate"],
        "--frobnicate",
    );
    assert_rejected(FIG08_KVS, &["--smoke", "--zipf=garbage"], "--zipf=garbage");
}

#[test]
fn scheduler_flag_is_gone_and_exits_2() {
    assert_rejected(
        FIG08_KVS,
        &["--smoke", "--scheduler=reference"],
        "--scheduler=reference",
    );
}

#[test]
fn out_of_range_values_exit_2_before_any_work() {
    // Each of these parses, and each used to panic inside the library:
    // a core off the machine, no core at all, an empty epoch, a Zipf
    // skew outside [0, 1), a key class that cannot be scrambled, or an
    // arrival rate that never advances time.
    for (exe, args) in [
        (FIG08_KVS, &["--cores=0"][..]),
        (FIG08_KVS, &["--cores=64"]),
        (FIG08_KVS, &["--migrate=0"]),
        (FIG08_KVS, &["--churn=0"]),
        (FIG08_KVS, &["--zipf=1"]),
        (FIG08_KVS, &["--zipf=-1"]),
        (FIG08_KVS, &["--zipf=nan"]),
        (FIG08_KVS, &["--migrate=64", "--cores=3"]),
        (FIG_SCALE_KVS, &["--cores=0"]),
        (FIG_SCALE_KVS, &["--cores=3"]),
        (FIG_SCALE_KVS, &["--rate=0"]),
        (FIG_SCALE_KVS, &["--rate=nan"]),
    ] {
        let offending = args.last().expect("one offending flag per case");
        let argv: Vec<&str> = std::iter::once("--smoke")
            .chain(args.iter().copied())
            .collect();
        assert_rejected(exe, &argv, &format!("`{offending}` is out of range"));
    }
}
