#!/usr/bin/env sh
# Runs every figure/table bench at the canonical baseline operating point
# (quick scale, --seed 1) and writes each bench's CSV set into OUTDIR.
#
# This script is the single definition of "the baseline configuration":
# tools/record_baselines regenerates bench/baselines/ with it, and CI runs
# it to produce the candidate CSVs that tools/compare_bench_csv.py checks
# against the committed baselines. Change the flags here and you must also
# regenerate the baselines.
#
# usage: run_bench_suite.sh BENCH_BIN_DIR OUTDIR [JOBS]
#   BENCH_BIN_DIR  directory with the built bench binaries (build/bench)
#   OUTDIR         where the CSVs (and per-bench stdout logs) land
#   JOBS           --jobs value; 0 = one per hardware thread (default)
set -eu

BIN=${1:?usage: run_bench_suite.sh BENCH_BIN_DIR OUTDIR [JOBS]}
OUT=${2:?usage: run_bench_suite.sh BENCH_BIN_DIR OUTDIR [JOBS]}
JOBS=${3:-0}

# micro_perf and scale_sweep are excluded: their output includes
# wall-clock timings, which are machine-dependent and meaningless to
# diff against a committed baseline. fig_modern_cc is the one bench that
# runs jtp_dr and bbr, so it is what gates them.
BENCHES="fig03_reliability fig04_caching fig05_backoff fig06_cache_size \
fig07_feedback fig08_adaptation fig09_linear fig10_random fig11_mobility \
table2_testbed analysis_caching_gain ablation_flipflop ablation_snack_rewrite \
fig_modern_cc"

mkdir -p "$OUT"
for b in $BENCHES; do
  echo "== $b"
  "$BIN/$b" --seed 1 --jobs "$JOBS" --csv "$OUT/$b.csv" > "$OUT/$b.log"
done
echo "suite done: $(ls "$OUT"/*.csv | wc -l) CSV file(s) in $OUT"
