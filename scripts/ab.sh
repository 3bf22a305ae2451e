#!/usr/bin/env bash
# Paired A/B runs of one benchmark workload: REV (the parent) against the
# checkout this script lives in (the change), each on seeds 1..N, one
# process per run, end-to-end pass only. The side that runs first
# alternates from seed to seed, so a drift in the box's speed loads both
# sides alike.
#
#   scripts/ab.sh REV WORKLOAD N [SECONDS]
#   scripts/ab.sh HEAD~1 batch-wide 10
#
# REV is built from `git archive` under .bench_build/ab/; nothing under
# benchmark/ is written. For every end-to-end metric of BENCHMARK.json it
# prints the parent's and the change's medians, the median of the paired
# ratios change/parent, how many of the N pairs the change wins (k of N,
# by the metric's "better" direction), the exact two-sided sign-test p
# over the pairs that differ, and "equal" when all N pairs are equal, the
# case of a metric deterministic per seed. Every run's JSON line is kept
# in .bench_build/ab/runs-<rev>-<workload>.txt. The table's header names
# the change side's tree (git describe --always --dirty): the change side is
# built from the working tree as it is at the start, so REV=HEAD on a dirty
# tree is not an A/A run, and the script warns of it.
set -euo pipefail
if (($# < 3)); then
  echo "usage: $0 REV WORKLOAD N [SECONDS]" >&2
  exit 2
fi
rev=$1 workload=$2 n=$3 seconds=${4:-12}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ab="$root/.bench_build/ab"
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

sha=$(git -C "$root" rev-parse --short "$rev")
tree=$(git -C "$root" describe --always --dirty)
if [[ $(git -C "$root" rev-parse "$rev") == $(git -C "$root" rev-parse HEAD) && $tree == *-dirty ]]; then
  echo "warning: REV is HEAD but the working tree is dirty ($tree): the change side runs the uncommitted edits, so this is not an A/A run" >&2
fi
src="$ab/src-$sha"
rm -rf "$src"
mkdir -p "$src" "$ab/out-parent" "$ab/out-change"
git -C "$root" archive "$sha" | tar -x -C "$src"
go build -C "$src/benchmark" -o "$ab/dnbench-parent" .
go build -C "$root/benchmark" -o "$ab/dnbench-change" .

runs="$ab/runs-$sha-$workload.txt"
: >"$runs"
# one SIDE SEED: run one side on one seed from its own tree, keeping the
# run's final JSON line.
one() {
  local dir=$src
  [[ $1 == change ]] && dir=$root
  local line
  line=$(cd "$dir" && "$ab/dnbench-$1" --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0 -outdir "$ab/out-$1" | tail -n 1)
  echo "$1 $2 $line" >>"$runs"
  echo "$1 seed $2: ${line:0:160}" >&2
}
for ((seed = 1; seed <= n; seed++)); do
  if ((seed % 2)); then
    one parent "$seed"
    one change "$seed"
  else
    one change "$seed"
    one parent "$seed"
  fi
done

echo "$workload, $n pairs: parent $sha, change $tree"
# Each run line becomes "side seed metric value" rows; each end-to-end
# metric of BENCHMARK.json its "name better" row.
metrics=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); print name "\t" $2 }' "$root/BENCHMARK.json")
awk -v n="$n" -v metrics="$metrics" '
  function median(a, k,    i, j, t) {
    for (i = 2; i <= k; i++) {
      t = a[i]
      for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
      a[j + 1] = t
    }
    return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
  }
  # signp: exact two-sided sign-test p for k wins out of m differing pairs.
  function signp(k, m,    lo, i, c, s) {
    if (m == 0) return 1
    lo = k < m - k ? k : m - k
    c = 1; s = 0
    for (i = 0; i <= lo; i++) {
      s += c
      c = c * (m - i) / (i + 1)
    }
    s = 2 * s / 2 ^ m
    return s > 1 ? 1 : s
  }
  {
    side = $1; seed = $2
    line = $0
    while (match(line, /"[a-z_0-9]+":[{]"value":[-+0-9.eE]+/)) {
      kv = substr(line, RSTART + 1, RLENGTH - 1)
      name = kv; sub(/".*/, "", name)
      val = kv; sub(/.*"value":/, "", val)
      v[side, seed, name] = val + 0
      line = substr(line, RSTART + RLENGTH)
    }
  }
  END {
    printf "%-22s %14s %14s %9s %7s %9s\n", "metric", "parent", "change", "ratio", "k/N", "sign p"
    cnt = split(metrics, rows, "\n")
    for (r = 1; r <= cnt; r++) {
      split(rows[r], f, "\t"); name = f[1]; better = f[2]
      if (name == "" || better == "") continue
      np = 0; wins = 0; diff = 0
      for (s = 1; s <= n; s++) {
        if (!(("parent", s, name) in v) || !(("change", s, name) in v)) continue
        p = v["parent", s, name]; c = v["change", s, name]
        np++; pa[np] = p; ca[np] = c
        ra[np] = p != 0 ? c / p : (c == 0 ? 1 : 0)
        if (c != p) {
          diff++
          if ((better == "lower") == (c < p)) wins++
        }
      }
      if (np == 0) continue
      eq = diff == 0 ? "  equal" : ""
      printf "%-22s %14.6g %14.6g %9.4f %3d/%-3d %9.3g%s\n", name, median(pa, np), median(ca, np), median(ra, np), wins, np, signp(wins, diff), eq
    }
  }' "$runs"
