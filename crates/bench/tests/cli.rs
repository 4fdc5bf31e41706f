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
fn log2_keys_is_the_second_positional_after_smoke() {
    // Flags do not take positional slots: `100` is `packets`.
    let out = stdout_of(KVS_PROBE, &["--smoke", "100", "12"]);
    assert!(out.starts_with("store: 2^12 values"), "{out}");
}

#[test]
fn log2_keys_is_the_second_positional_between_flags() {
    // A positional after a flag still counts: `12` beats the smoke
    // default of 14.
    let out = stdout_of(KVS_PROBE, &["100", "--smoke", "12"]);
    assert!(out.starts_with("store: 2^12 values"), "{out}");
}

/// Every figure binary with the positionals it declares, in order.
/// Each one is read: a binary declares only what it uses.
const DECLARED: &[(&str, &[&str])] = &[
    ("ablations", &["packets"]),
    (
        "calibrate",
        &["packets", "framework_cycles", "flow_skew", "nic_cap"],
    ),
    ("ext_pipeline", &["packets"]),
    ("fig04_hash", &["packets"]),
    ("fig05_latency", &["runs"]),
    ("fig06_speedup", &["runs", "packets"]),
    ("fig07_ops", &["packets"]),
    ("fig08_kvs", &["packets", "log2_keys"]),
    ("fig12_lowrate", &["runs", "packets"]),
    ("fig13_forward", &["runs", "packets"]),
    ("fig14_chain", &["runs", "packets"]),
    ("fig15_knee", &["packets"]),
    ("fig16_table4_skylake", &["runs"]),
    ("fig17_isolation", &["packets"]),
    ("fig_knee_kvs", &["packets"]),
    ("fig_scale_kvs", &["packets", "log2_keys"]),
    ("fig_tenants", &["packets"]),
    ("headroom_dist", &["packets"]),
    ("kvs_probe", &["packets", "log2_keys"]),
    ("skylake_nfv", &["runs", "packets"]),
    ("table01_cachespec", &[]),
];

#[test]
fn one_positional_more_than_declared_exits_2_for_every_figure_binary() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut bins: Vec<String> = std::fs::read_dir(dir)
        .expect("the figure sources are listable")
        .map(|e| {
            let path = e.expect("a readable entry").path();
            let stem = path.file_stem().expect("a file name");
            stem.to_string_lossy().into_owned()
        })
        .collect();
    bins.sort();
    let listed: Vec<&str> = DECLARED.iter().map(|&(name, _)| name).collect();
    assert_eq!(bins, listed, "one row per figure binary, in name order");
    // Cargo builds every binary of the package beside this one.
    let dir = std::path::Path::new(KVS_PROBE).with_file_name("");
    for &(name, positionals) in DECLARED {
        let exe = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        let exe = exe.to_str().expect("a UTF-8 path");
        let mut args = vec!["--smoke"];
        args.extend(std::iter::repeat_n("1", positionals.len() + 1));
        // The usage line names exactly the declared positionals.
        let usage: String = positionals.iter().map(|p| format!(" [{p}]")).collect();
        let expected =
            format!("unexpected positional `1`\nusage: {name}{usage} [--smoke] [--parallel]");
        assert_rejected(exe, &args, &expected);
    }
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
