#!/usr/bin/env bash
# Offline CI gate for the workspace. Everything here runs without
# network access: no crates.io dependencies, no rustup downloads.
#
#   scripts/ci.sh         # fmt + doc paths + clippy + tests + determinism
#   scripts/ci.sh full    # ...plus release build, bench-harness check,
#                         # a --smoke run of every figure binary
#                         # (serial AND --parallel), and the llcbench
#                         # smoke suite with its determinism gate
#   scripts/ci.sh smoke   # only the figure-binary smoke runs
#   scripts/ci.sh det     # only the determinism gate
set -euo pipefail
cd "$(dirname "$0")/.."

# Every experiment binary, run end to end at --smoke scale (one run,
# tiny packet counts, shrunken stores). Proves the figures still
# *execute* after a refactor; EXPERIMENTS.md records full-scale numbers.
smoke() {
    echo "==> figure-binary smoke runs (--smoke)"
    cargo build --release -q -p bench
    local bins=(
        table01_cachespec fig04_hash fig05_latency fig06_speedup
        fig07_ops fig08_kvs fig12_lowrate fig13_forward fig14_chain
        fig15_knee fig_knee_kvs fig16_table4_skylake fig17_isolation
        fig_tenants fig_scale_kvs ext_pipeline headroom_dist kvs_probe
        skylake_nfv calibrate
    )
    for bin in "${bins[@]}"; do
        echo "    -> ${bin}"
        "./target/release/${bin}" --smoke > /dev/null
        "./target/release/${bin}" --smoke --parallel > /dev/null
    done
    # The §8 hot-set migration study: a skewed multi-core run that must
    # migrate (its golden pins hot-hit-rate above static Striped and a
    # non-zero migration-cycle ledger), in both execution modes.
    echo "    -> fig08_kvs (migration study)"
    ./target/release/fig08_kvs --smoke --zipf=0.99 --migrate=4096 --cores=4 > /dev/null
    ./target/release/fig08_kvs --smoke --parallel --zipf=0.99 --migrate=4096 --cores=4 > /dev/null
    # The cost-aware migration churn study, in both execution modes,
    # with the acceptance invariant pinned: the cost-aware controller
    # must execute ZERO swaps at a projected loss (its golden also pins
    # the full table, but this assertion survives golden re-records).
    echo "    -> fig08_kvs (churn study)"
    local churn_out
    churn_out="$(./target/release/fig08_kvs --smoke --zipf=0.99 --churn=4096 --cores=4 2>/dev/null)"
    ./target/release/fig08_kvs --smoke --parallel --zipf=0.99 --churn=4096 --cores=4 > /dev/null
    if ! grep -q '^cost-aware swaps at a projected loss: 0 ' <<<"${churn_out}"; then
        echo "FAIL: cost-aware migration executed swaps at a projected loss" >&2
        grep 'projected loss' <<<"${churn_out}" >&2 || true
        exit 1
    fi
    # The overload chaos scenario: flash crowd + link flap + RX stall,
    # graceful degradation and recovery, in both execution modes.
    echo "    -> fig_knee_kvs (chaos scenario)"
    ./target/release/fig_knee_kvs --smoke --chaos > /dev/null
    ./target/release/fig_knee_kvs --smoke --parallel --chaos > /dev/null
}

# Determinism gate: the cache walk's epoch tests (threaded vs inline
# shards, and LLC effects applied at once vs logged and replayed) and
# its snoop-filter test (every core's filter counts equal a recount of
# its L1 and L2, through direct accesses and replayed shards), the
# engine's differential and prop suites (serial vs parallel AND
# event-driven vs the reference tick-stepper it keeps as its oracle,
# with fault plans whose outage windows are guarded to fire), the real
# applications' serial-vs-parallel suite (tests/determinism.rs, its
# faulty NFV case pinned to the frames its RX stall spans), a
# byte-level double-run diff of an engine-backed figure binary under
# --parallel, and the pinned epoch ceiling (the empty-epoch tax must
# stay dead). Serial vs parallel stdout of every figure is diffed
# against one snapshot by crates/bench/tests/figures_golden.rs.
det() {
    echo "==> determinism: cache walk (threaded/inline shards + apply-now/replay)"
    cargo test -p llc-sim --lib -q epoch::
    echo "==> determinism: snoop filter matches private-cache residency"
    cargo test -p llc-sim --lib -q hierarchy::tests::snoop_filter
    echo "==> determinism: differential suite (serial/parallel + reference/event-driven)"
    cargo test -p engine --test differential -q
    # Same suite single-threaded: harness scheduling must not matter.
    cargo test -p engine --test differential -q -- --test-threads=1
    echo "==> determinism: prop suite (random configs and fault plans, both modes)"
    cargo test -p engine --test prop -q
    echo "==> determinism: NFV, pipeline, KVS and tenancy serial vs parallel"
    cargo test --test determinism -q
    echo "==> determinism: double-run diff of fig08_kvs --smoke --parallel"
    cargo build --release -q -p bench
    local out_a out_b
    out_a="$(mktemp)"
    out_b="$(mktemp)"
    ./target/release/fig08_kvs --smoke --parallel --cores=4 > "$out_a"
    ./target/release/fig08_kvs --smoke --parallel --cores=4 > "$out_b"
    diff -u "$out_a" "$out_b"
    rm -f "$out_a" "$out_b"
    echo "==> scheduler: pinned epoch ceiling on fig08_kvs --smoke --cores=4"
    # The event-driven scheduler dispatches ~300 epochs here (one per
    # closed-loop round); the tick-stepper paid ~52k. The ceiling has
    # 2x headroom — above it, the empty-epoch tax is creeping back.
    local ceiling=600 sched dispatched
    sched="$(./target/release/fig08_kvs --smoke --cores=4 2>&1 >/dev/null | grep '^\[sched\]')"
    echo "    ${sched}"
    dispatched="$(sed -n 's/.*epochs_dispatched=\([0-9]*\).*/\1/p' <<<"${sched}")"
    if [[ -z "${dispatched}" ]] || (( dispatched == 0 || dispatched > ceiling )); then
        echo "FAIL: epochs_dispatched=${dispatched:-unparsed} outside (0, ${ceiling}]" >&2
        exit 1
    fi
}

# Doc-path check: every repo path the docs and Rust sources cite in
# backticks must exist, so deleting or moving a file cannot leave stale
# citations behind. A token is checked when it contains `/` and ends in
# .rs/.sh/.json/.toml/.md/.txt, or is a bare *.json/*.sh/*.md/*.txt name. It
# must exist relative to the repo root; a Rust file's citation may also
# be relative to its crate directory. CHANGES.md is a dated log and is
# not scanned. Cite a retired file without a checkable token, e.g.
# `git show <commit>:path`.
docpaths() {
    echo "==> doc paths: cited files exist"
    local files=(README.md DESIGN.md ROADMAP.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
    mapfile -t -O "${#files[@]}" files < <(find crates src tests -name '*.rs' | sort)
    local stale=0 file crate tok
    for file in "${files[@]}"; do
        crate=.
        if [[ ${file} == crates/* ]]; then
            crate="$(cut -d/ -f1-2 <<<"${file}")"
        fi
        while IFS= read -r tok; do
            tok="${tok//\`/}"
            [[ -e ${tok} ]] && continue
            [[ ${file} == *.rs && -e ${crate}/${tok} ]] && continue
            echo "    ${file}: \`${tok}\` does not exist" >&2
            stale=1
        done < <(grep -oE '`([A-Za-z0-9_.-]+/)+[A-Za-z0-9_.-]+\.(rs|sh|json|toml|md|txt)`|`[A-Za-z0-9_.-]+\.(json|sh|md|txt)`' "${file}" | sort -u)
    done
    if (( stale )); then
        echo "FAIL: stale file citations (see above)" >&2
        exit 1
    fi
}

if [[ "${1:-}" == "smoke" ]]; then
    smoke
    echo "CI OK"
    exit 0
fi

if [[ "${1:-}" == "det" ]]; then
    det
    echo "CI OK"
    exit 0
fi

echo "==> rustfmt (check only)"
cargo fmt --all --check

docpaths

echo "==> clippy, all targets, warnings are errors"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> tests (whole workspace)"
cargo test --workspace -q

det

if [[ "${1:-}" == "full" ]]; then
    echo "==> release build"
    cargo build --release -q
    echo "==> bench harness compiles (not run)"
    cargo clippy --workspace --all-targets --features bench-harness -q -- -D warnings
    cargo bench -p bench --features bench-harness --no-run -q
    smoke
    # llcbench is its own package (llcbench/Cargo.toml), outside the
    # workspace: its smoke suite runs every workload at --smoke sizes
    # and checks the correctness gate (bit-identical sim_digest across
    # repeats and the traced run).
    echo "==> llcbench smoke suite"
    cargo test --manifest-path llcbench/Cargo.toml -q
fi

echo "CI OK"
