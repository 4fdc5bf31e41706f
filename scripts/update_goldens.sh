#!/usr/bin/env bash
# Regenerates the --smoke golden snapshots the figure-regression test
# (crates/bench/tests/figures_golden.rs) diffs against.
#
# Run this after any change that intentionally shifts figure output
# (new defaults, engine semantics, report format), review the diff like
# any other code change, and commit the updated snapshots:
#
#   scripts/update_goldens.sh
#   git diff crates/bench/tests/golden/
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p bench
mkdir -p crates/bench/tests/golden

for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "${src}" .rs)"
    echo "-> ${bin}"
    "./target/release/${bin}" --smoke > "crates/bench/tests/golden/${bin}.txt"
done

# The §8 hot-set migration study is a second output mode of fig08_kvs
# with its own snapshot.
echo "-> fig08_kvs (migration study)"
./target/release/fig08_kvs --smoke --zipf=0.99 --migrate=4096 --cores=4 \
    > crates/bench/tests/golden/fig08_kvs_migrate.txt

# The cost-aware-migration churn study is a third output mode of
# fig08_kvs with its own snapshot.
echo "-> fig08_kvs (churn study)"
./target/release/fig08_kvs --smoke --zipf=0.99 --churn=4096 --cores=4 \
    > crates/bench/tests/golden/fig08_kvs_churn.txt

# The overload chaos scenario is a second output mode of fig_knee_kvs
# with its own snapshot.
echo "-> fig_knee_kvs (chaos scenario)"
./target/release/fig_knee_kvs --smoke --chaos \
    > crates/bench/tests/golden/fig_knee_kvs_chaos.txt

echo "golden snapshots updated"
