#!/usr/bin/env bash
# Runs the benchmark once per seed on each named workload and appends
# every result to a record file, the input of --compare. Run from the
# repository root:
#
#   bash perfbench/sweep.sh out.jsonl 0 "predict-float attack" 1 2 3 4 5 6 7 8 9 10
#   bash perfbench/run.sh --compare parent.jsonl out.jsonl
#
# Arguments: record file, trace (0 or 1), workloads, seeds. The run
# length is BENCHMARK.json's run_seconds.
set -euo pipefail
if [ $# -lt 4 ]; then
  echo "usage: sweep.sh RECORD TRACE \"WORKLOAD...\" SEED..." >&2
  exit 2
fi
record="$1" trace="$2" names="$3"
shift 3
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
for w in $names; do
  for s in "$@"; do
    bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" --record "$record" | tail -n 1
  done
done
