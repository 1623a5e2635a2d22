#!/bin/sh
# Paired benchmark runs: a base revision against the working tree.
#
#   ./scripts/bench_pairs.sh BASE_REV WORKLOAD N [SECONDS]
#
# Exports BASE_REV with `git archive` into a temporary directory, builds
# benchmark/run.exe there and in this checkout, then runs N pairs of
# `run.exe --workload WORKLOAD --seed S --seconds SECONDS --trace 0`
# (SECONDS defaults to 20, the budget BENCHMARK.json gives a run). Pair
# i uses seed i, for i = 1..N, and the two sides alternate which runs
# first: base first in odd pairs, the working tree first in even ones.
# Both sides run the same length and one at a time. At the end it prints
# `run.exe compare` over the saved results: each side's median and
# quartiles per end-to-end metric, the paired wins, and the verdict
# (a gain needs at least 9 wins in 10 pairs and a median gap wider than
# the base's interquartile range).
#
# Results stay in the printed directory; nothing in the checkout
# changes except its _build. Exits with compare's status: 1 when a
# metric regressed beyond its bound.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 BASE_REV WORKLOAD N [SECONDS]" >&2
  exit 2
fi
rev=$1
workload=$2
pairs=$3
seconds=${4:-20}

cd "$(dirname "$0")/.."
head=$(pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/heron_pairs.XXXXXX")
base="$work/base"
mkdir "$base"
git archive --format=tar "$rev" | tar -x -C "$base"

echo "== building $rev in $base"
dune build --root "$base" --cache=disabled --display quiet benchmark/run.exe
echo "== building the working tree"
dune build --root "$head" --cache=disabled --display quiet benchmark/run.exe

run() {
  if [ "$1" = base ]; then dir=$base; else dir=$head; fi
  (cd "$dir" &&
   ./_build/default/benchmark/run.exe --workload "$workload" --seed "$2" \
     --seconds "$seconds" --trace 0 --out "$work/$1-$2.json" >/dev/null)
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    echo "== pair $i: $side"
    run "$side" "$i"
  done
  i=$((i + 1))
done

echo "== results in $work"
exec "$head/_build/default/benchmark/run.exe" compare --spec "$head/BENCHMARK.json" \
  --base "$work"/base-*.json --head "$work"/head-*.json
