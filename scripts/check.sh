#!/bin/sh
# Repository health check: build, tests, and the observability edges
# (metrics dump + Perfetto trace must be valid JSON).
#
#   ./scripts/check.sh
#   ARTIFACTS=artifacts ./scripts/check.sh   # keep the JSON outputs
#
# With ARTIFACTS set, the metrics dump, trace file and bench-smoke
# BENCH_*.json files are written there (and kept) instead of into a
# throwaway directory — CI uploads that directory as the workflow
# artifact. Either way the working tree is left as it was: the
# committed BENCH_*.json files in the repository root are full-mode
# runs and the quick smokes here must not overwrite them.
#
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

root=$(pwd)
if [ -n "${ARTIFACTS:-}" ]; then
  mkdir -p "$ARTIFACTS"
  out=$(cd "$ARTIFACTS" && pwd)
else
  out=$(mktemp -d /tmp/heron_check.XXXXXX)
  trap 'rm -rf "$out"' EXIT
fi
metrics="$out/bench_smoke_metrics.json"
trace="$out/probe_trace.json"

# The bench writes BENCH_<name>.json into its working directory: run it
# inside $out.
bench() {
  (cd "$out" && dune exec --root "$root" --no-print-directory bench/main.exe -- "$@")
}

echo "== bench --metrics =="
dune exec bench/main.exe -- fig8 quick --metrics "$metrics" > /dev/null
dune exec bin/probe.exe -- jsonlint "$metrics"

echo "== probe trace =="
dune exec bin/probe.exe -- trace "$trace" > /dev/null
dune exec bin/probe.exe -- jsonlint "$trace"

echo "== probe explain =="
# Critical paths of the slowest traced requests, re-read from the dump.
dune exec bin/probe.exe -- explain "$trace" --top 3

echo "== chaos smoke sweep =="
# 120 generated fault schedules against the full stack; failures shrink
# and pin under test/corpus/ so they can be committed as regressions.
dune exec bin/probe.exe -- chaos --seeds 0..119 --shrink --corpus test/corpus

echo "== pipelined chaos sweep =="
# The same schedule space with the compartmentalized pipeline on
# (DESIGN.md §12), plus the pinned corpus replayed with the pipeline
# on top of the deployment each pin records, so every pin guards both
# loops. Longhaul pins replay with durability and the flat-memory
# verdict armed, as they record.
dune exec bin/probe.exe -- chaos --seeds 0..200 --pipeline --shrink --corpus test/corpus
dune exec bin/probe.exe -- chaos --replay test/corpus --pipeline

echo "== fast-reads chaos sweep =="
# The same schedule space with lease-based local reads on (DESIGN.md
# §14): single-partition reads served from lease holders' local stores
# under crashes, restarts and migrations, judged by the same
# linearizability verdict. The pinned corpus replays with leases added
# to the deployment each pin records.
dune exec bin/probe.exe -- chaos --seeds 0..200 --fast-reads --shrink --corpus test/corpus
dune exec bin/probe.exe -- chaos --replay test/corpus --fast-reads

echo "== reconfig chaos sweep =="
# Live-repartitioning schedules: migrations timed into crash/restart
# windows (DESIGN.md §10), same shrink-and-pin flow.
dune exec bin/probe.exe -- chaos --seeds 0..99 --reconfig --shrink --corpus test/corpus
# Migrate barriers against the executor pool: the only place the two
# meet.
dune exec bin/probe.exe -- chaos --seeds 0..100 --reconfig --pipeline --shrink --corpus test/corpus

echo "== elastic chaos sweep =="
# Elastic topology schedules (DESIGN.md §15): shard splits and merges
# ordered through the total order, timed into crash/restart windows so
# resharding races recovery and lagging bootstraps. Same
# shrink-and-pin flow; elastic pins carry their topology in the
# schedule JSON, so the corpus replays above already exercise them.
dune exec bin/probe.exe -- chaos --seeds 0..100 --elastic --shrink --corpus test/corpus
dune exec bin/probe.exe -- chaos --seeds 0..100 --elastic --pipeline --shrink --corpus test/corpus

echo "== longhaul chaos smoke =="
# Long-horizon durability schedules (DESIGN.md §13): minutes of virtual
# time per seed with checkpointing on; verdicts include flat memory
# (bounded update/multicast logs) and O(delta) rejoin, not just
# linearizability. Pinned longhaul schedules record that deployment,
# so the corpus replays above already run them under it.
dune exec bin/probe.exe -- longhaul --seeds 0..39 --shrink --corpus test/corpus

echo "== bench ablations smoke =="
# The grace and parallel-execution ablation tables (EXPERIMENTS.md);
# nothing else runs this entry point.
bench quick ablations > /dev/null

echo "== bench longhaul smoke =="
# Durability ablation: checkpointing on vs off over a long virtual
# horizon -> BENCH_longhaul.json (flat vs linear log growth, O(delta)
# vs O(history) rejoin). The guard holds durable throughput and the
# compaction factor against the committed quick-mode baseline.
bench quick longhaul
dune exec bin/probe.exe -- jsonlint "$out/BENCH_longhaul.json"
dune exec bin/probe.exe -- benchguard "$out/BENCH_longhaul.json" \
  scripts/bench_longhaul_baseline.json \
  --keys durable_tput_tps,compaction_factor_x100 --max-regression-pct 10

echo "== bench elastic smoke =="
# Ramp bench: client load grows 10x mid-run; the elastic deployment
# (ring topology + two-tier rebalancer, DESIGN.md §15) splits shards
# onto the idle server pool while the static one saturates ->
# BENCH_elastic.json. The guard holds both post-ramp throughputs
# against the committed quick-mode baseline.
bench quick elastic
dune exec bin/probe.exe -- jsonlint "$out/BENCH_elastic.json"
dune exec bin/probe.exe -- benchguard "$out/BENCH_elastic.json" \
  scripts/bench_elastic_baseline.json \
  --keys elastic_postramp_tput_tps,static_postramp_tput_tps \
  --max-regression-pct 10

echo "all checks passed"
