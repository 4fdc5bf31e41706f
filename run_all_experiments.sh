#!/bin/sh
# Regenerates every table and figure of the paper. Arguments scale the
# statistics: most binaries take [runs] [packets-or-ops]. Pass
# --parallel to run the engine-backed experiments with workers on OS
# threads (bit-identical output, lower wall-clock on multi-queue runs).
set -e
EXTRA=""
for a in "$@"; do
    if [ "$a" = "--parallel" ]; then EXTRA="--parallel"; fi
done
BIN="cargo run --release -q -p bench --bin"
echo "================ Table 1 ================";  $BIN table01_cachespec $EXTRA
echo "================ Fig. 4 ================";   $BIN fig04_hash 1 512 $EXTRA
echo "================ Fig. 5 ================";   $BIN fig05_latency 50 $EXTRA
echo "================ Fig. 6 ================";   $BIN fig06_speedup 20 10000 $EXTRA
echo "================ Fig. 7 ================";   $BIN fig07_ops 1 15000 $EXTRA
echo "================ Fig. 8 ================";   $BIN fig08_kvs 1 100000 21 $EXTRA
echo "================ §8 migration (hot-set churn) ================"; $BIN fig08_kvs 1 100000 21 --zipf=0.99 --churn=4096 --cores=4 $EXTRA
echo "================ §4.2 headroom ================"; $BIN headroom_dist 1 16384 $EXTRA
echo "================ Fig. 12 ================";  $BIN fig12_lowrate 10 5000 $EXTRA
echo "================ Fig. 13 / Table 3a ================"; $BIN fig13_forward 10 120000 $EXTRA
echo "================ Figs. 1+14 / Table 3b ================"; $BIN fig14_chain 10 120000 $EXTRA
echo "================ Fig. 15 ================";  $BIN fig15_knee 1 50000 $EXTRA
echo "================ Overload knee (open-loop KVS) ================"; $BIN fig_knee_kvs 1 30000 $EXTRA
echo "================ Overload chaos ================"; $BIN fig_knee_kvs 1 30000 --chaos $EXTRA
echo "================ Fig. 16 / Table 4 ================"; $BIN fig16_table4_skylake 10 $EXTRA
echo "================ Fig. 17 ================";  $BIN fig17_isolation 1 40000 $EXTRA
echo "================ Multi-tenant SLO defense ================"; $BIN fig_tenants 1 20000 $EXTRA
echo "================ Scale study (million-key KVS) ================"; $BIN fig_scale_kvs 1 1000000 21 $EXTRA
echo "================ §6 Skylake NFV ================"; $BIN skylake_nfv 5 120000 $EXTRA
echo "================ §8 pipelined compromise ================"; $BIN ext_pipeline 1 60000 $EXTRA
echo "================ Design ablations (DESIGN.md §6) ================"; $BIN ablations 1 40000 $EXTRA
