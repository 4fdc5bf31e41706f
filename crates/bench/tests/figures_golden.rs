//! Figure-output regression: every experiment binary's `--smoke` stdout is
//! diffed byte-for-byte against a committed golden snapshot, in BOTH
//! execution modes.
//!
//! Two properties are pinned at once:
//!
//! 1. **Figures don't drift silently.** Any change to engine semantics,
//!    defaults, or report formatting shows up as a snapshot diff that has
//!    to be reviewed and re-recorded (`scripts/update_goldens.sh`).
//! 2. **`--parallel` is invisible in the output.** Serial and parallel
//!    runs are compared against the *same* snapshot, so threaded
//!    execution must be bit-identical to serial all the way out to the
//!    printed report — the user-visible face of the determinism
//!    guarantee proved structurally in `crates/engine/tests/differential.rs`
//!    and `tests/determinism.rs`.
//!
//! Snapshots live in `crates/bench/tests/golden/` and are regenerated
//! with `scripts/update_goldens.sh` after any intentional output change.

use std::process::Command;

/// Runs one experiment binary with the given args and returns its stdout.
fn run(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure output is UTF-8")
}

/// Asserts `actual` matches the golden snapshot, with a readable
/// first-divergence report on failure.
fn assert_matches_golden(name: &str, mode: &str, golden: &str, actual: &str) {
    if actual == golden {
        return;
    }
    let diverge = golden
        .lines()
        .zip(actual.lines())
        .position(|(g, a)| g != a)
        .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
    let want = golden.lines().nth(diverge).unwrap_or("<eof>");
    let got = actual.lines().nth(diverge).unwrap_or("<eof>");
    panic!(
        "{name} ({mode}) diverged from golden snapshot at line {}:\n  \
         golden: {want}\n  actual: {got}\n\
         If this change is intentional, regenerate with \
         scripts/update_goldens.sh and review the diff.",
        diverge + 1
    );
}

macro_rules! golden_tests {
    ($($bin:ident),+ $(,)?) => {$(
        mod $bin {
            use super::*;

            const GOLDEN: &str =
                include_str!(concat!("golden/", stringify!($bin), ".txt"));
            const EXE: &str =
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin)));

            #[test]
            fn smoke_serial_matches_golden() {
                let out = run(EXE, &["--smoke"]);
                assert_matches_golden(stringify!($bin), "serial", GOLDEN, &out);
            }

            #[test]
            fn smoke_parallel_matches_same_golden() {
                let out = run(EXE, &["--smoke", "--parallel"]);
                assert_matches_golden(stringify!($bin), "parallel", GOLDEN, &out);
            }
        }
    )+};
}

/// The fig08_kvs `--migrate` study has its own golden: a different
/// banner and table from the default run (which keeps its own snapshot
/// untouched), same bit-identical serial/parallel contract.
mod fig08_kvs_migrate {
    use super::*;

    const GOLDEN: &str = include_str!("golden/fig08_kvs_migrate.txt");
    const EXE: &str = env!("CARGO_BIN_EXE_fig08_kvs");
    const ARGS: [&str; 3] = ["--zipf=0.99", "--migrate=4096", "--cores=4"];

    #[test]
    fn smoke_serial_matches_golden() {
        let out = run(EXE, &[&["--smoke"], &ARGS[..]].concat());
        assert_matches_golden("fig08_kvs_migrate", "serial", GOLDEN, &out);
    }

    #[test]
    fn smoke_parallel_matches_same_golden() {
        let out = run(EXE, &[&["--smoke", "--parallel"], &ARGS[..]].concat());
        assert_matches_golden("fig08_kvs_migrate", "parallel", GOLDEN, &out);
    }
}

/// The fig08_kvs `--churn` study (cost-aware migration under hot-set
/// churn) has its own golden, same bit-identical serial/parallel
/// contract. The snapshot also pins the acceptance shape: zero at-loss
/// swaps for the cost-aware row.
mod fig08_kvs_churn {
    use super::*;

    const GOLDEN: &str = include_str!("golden/fig08_kvs_churn.txt");
    const EXE: &str = env!("CARGO_BIN_EXE_fig08_kvs");
    const ARGS: [&str; 3] = ["--zipf=0.99", "--churn=4096", "--cores=4"];

    #[test]
    fn smoke_serial_matches_golden() {
        let out = run(EXE, &[&["--smoke"], &ARGS[..]].concat());
        assert_matches_golden("fig08_kvs_churn", "serial", GOLDEN, &out);
    }

    #[test]
    fn smoke_parallel_matches_same_golden() {
        let out = run(EXE, &[&["--smoke", "--parallel"], &ARGS[..]].concat());
        assert_matches_golden("fig08_kvs_churn", "parallel", GOLDEN, &out);
    }
}

/// The fig_knee_kvs `--chaos` study has its own golden (the overload
/// sweep keeps the default snapshot), same bit-identical
/// serial/parallel contract.
mod fig_knee_kvs_chaos {
    use super::*;

    const GOLDEN: &str = include_str!("golden/fig_knee_kvs_chaos.txt");
    const EXE: &str = env!("CARGO_BIN_EXE_fig_knee_kvs");
    const ARGS: [&str; 1] = ["--chaos"];

    #[test]
    fn smoke_serial_matches_golden() {
        let out = run(EXE, &[&["--smoke"], &ARGS[..]].concat());
        assert_matches_golden("fig_knee_kvs_chaos", "serial", GOLDEN, &out);
    }

    #[test]
    fn smoke_parallel_matches_same_golden() {
        let out = run(EXE, &[&["--smoke", "--parallel"], &ARGS[..]].concat());
        assert_matches_golden("fig_knee_kvs_chaos", "parallel", GOLDEN, &out);
    }
}

golden_tests!(
    table01_cachespec,
    fig04_hash,
    fig05_latency,
    fig06_speedup,
    fig07_ops,
    fig08_kvs,
    fig12_lowrate,
    fig13_forward,
    fig14_chain,
    fig15_knee,
    fig_knee_kvs,
    fig16_table4_skylake,
    fig17_isolation,
    fig_tenants,
    fig_scale_kvs,
    ext_pipeline,
    headroom_dist,
    kvs_probe,
    skylake_nfv,
    calibrate,
    ablations,
);
