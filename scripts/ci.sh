#!/usr/bin/env bash
# Offline CI gate for the workspace. Everything here runs without
# network access: no crates.io dependencies, no rustup downloads.
#
#   scripts/ci.sh         # fmt + doc paths + lint ratchet + clippy +
#                         # llcbench check + tests + determinism
#   scripts/ci.sh full    # ...plus release build, a --smoke run of
#                         # every figure binary (serial AND --parallel),
#                         # and the llcbench smoke suite with its
#                         # determinism gate
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
    local src bin
    for src in crates/bench/src/bin/*.rs; do
        bin="$(basename "${src}" .rs)"
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
# engine's dispatch-rule test (`run_until` runs an epoch only for a busy
# worker strictly behind the horizon, and its idle branch re-arms a ring
# an outage left under-posted — a dispatch change that moves only the
# epoch counters shows nowhere else), the open-loop client's event-queue
# test (its per-class timer deques pop exactly what a (key, sub, seq)
# min-queue pops, so retries and give-ups fire in the documented order),
# the engine's differential and prop suites (serial vs parallel AND
# event-driven vs the reference tick-stepper it keeps as its oracle, with
# fault plans whose outage windows are guarded to fire), the real
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
    echo "==> determinism: engine dispatch rule (busy and strictly behind the horizon)"
    cargo test -p engine --lib -q run_until_dispatches_only_for_a_busy_worker_strictly_behind_the_horizon
    echo "==> determinism: open-loop client event queue (class deques vs a brute-force min-queue)"
    cargo test -p kvs --lib -q event_queue_matches_a_brute_force_min_queue
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

# Design-quality ratchet: the ROADMAP's lint-exemption counters, the
# library's `unsafe` count and its `pub fn` count, checked instead of
# hand-counted. Lower a ceiling when a change removes an exemption, an
# `unsafe` or a `pub fn`; never raise one to let a change pass. Test-only
# code (`crates/*/tests/`, e.g. the counting allocators of the allocation
# tests) is outside the `unsafe` count. The `pub fn` count covers the
# library sources (the figure binaries are crates of their own): rustc's
# `dead_code` lint cannot see a `pub` item, so a `pub fn` that no other
# crate names should be `pub(crate)` instead.
ratchet() {
    echo "==> ratchet: lint exemptions, library unsafe and library pub fn"
    local max_allow=4 max_tma=1 max_unsafe=4 max_pub_fn=411 allows tma unsafes pub_fns
    # `git grep` exits 1 on no match; a count of 0 must not end the gate.
    allows="$({ git grep -o '#\[allow(' -- '*.rs' || true; } | wc -l)"
    tma="$({ git grep -o 'too_many_arguments' -- '*.rs' || true; } | wc -l)"
    unsafes="$({ git grep -ow unsafe -- 'crates/*/src/*.rs' 'src/*.rs' || true; } | wc -l)"
    pub_fns="$({ git grep -E '^\s*pub (const |unsafe )?fn ' -- 'crates/*/src/**' 'src/**' ':!crates/bench/src/bin/**' || true; } | wc -l)"
    echo "    #[allow( = ${allows} (max ${max_allow}), too_many_arguments = ${tma} (max ${max_tma}), unsafe = ${unsafes} (max ${max_unsafe}), pub fn = ${pub_fns} (max ${max_pub_fn})"
    if (( allows > max_allow || tma > max_tma || unsafes > max_unsafe || pub_fns > max_pub_fn )); then
        echo "FAIL: lint-exemption, library unsafe or library pub fn count above its ceiling" >&2
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

ratchet

echo "==> clippy, all targets, warnings are errors"
cargo clippy --workspace --all-targets -q -- -D warnings

# llcbench is its own package, outside the workspace: clippy above cannot
# see what it names, so narrowing an item it uses would pass unnoticed.
echo "==> llcbench compiles against the libraries"
cargo check --offline --all-targets --manifest-path llcbench/Cargo.toml -q

echo "==> tests (whole workspace)"
cargo test --workspace -q

det

if [[ "${1:-}" == "full" ]]; then
    echo "==> release build"
    cargo build --release -q
    smoke
    # llcbench is its own package (llcbench/Cargo.toml), outside the
    # workspace: its smoke suite runs every workload at --smoke sizes
    # and checks the correctness gate (bit-identical sim_digest across
    # repeats and the traced run).
    echo "==> llcbench smoke suite"
    cargo test --manifest-path llcbench/Cargo.toml -q
fi

echo "CI OK"
