#!/usr/bin/env bash
# Builds one result set the way the acceptance procedure does: every
# workload once per seed, each run its own process, end-to-end pass only,
# plus one traced pass per workload on the first seed.
#   benchmark/calibrate.sh benchmark/results/seed-1-a.json [first-seed] [seeds]
set -euo pipefail
out="$1"; first="${2:-1}"; n="${3:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(batch-ftth batch-churn batch-wide batch-ftth-s2 serve-ftth)
rm -f "$out"
for ((seed = first; seed < first + n; seed++)); do
  for w in "${workloads[@]}"; do
    "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 -out "$out" | tail -n 1
  done
done
for w in "${workloads[@]}"; do
  "$here/run.sh" --workload "$w" --seed "$first" --trace 1 -out "$out" | tail -n 1
done
