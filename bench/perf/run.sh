#!/usr/bin/env bash
# Builds the benchmark harness (Release) into build/perf and runs it.
#
#   bench/perf/run.sh                      # every workload, 7 reps + traced run
#   bench/perf/run.sh --smoke              # 1 rep at 1/20 horizon, < 60 s
#   bench/perf/run.sh --workload bursty_1k --reps 3 --out build/perf/a.json
#   bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last form is the BENCHMARK.json contract: one workload, time-boxed,
# with one JSON object as the last line of stdout. Build output goes to
# stderr. See README.md for the workloads and metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/perf"

cd "$root"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target jtpbench -j 4 >&2

sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/jtpbench" --git-sha "$sha" "$@"
