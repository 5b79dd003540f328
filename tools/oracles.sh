#!/usr/bin/env bash
# Writes every same-seed artifact of the simulation into OUTDIR, so that two
# builds (say a parent commit and a change) can be compared with one
#
#     diff -r OUTDIR_A OUTDIR_B
#
# Every file holds simulated-time results only, which are pure functions of
# their seeds; host timings are filtered out. Run it from any directory:
#
#     cmake -B build -S . && cmake --build build -j
#     tools/oracles.sh /tmp/oracles
#
# It uses the binaries in build/ and builds the repository benchmark into
# .bench_build/perfbench (Release, as perfbench/run.py does).
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
bin=build

# The repository benchmark's simulated-time lines ("[sim]"), per workload
# and trace level. --seconds 0 runs the fixed minimum of rounds; the [sim]
# lines come from the first round, so their count does not matter.
pb=.bench_build/perfbench
if [ ! -f "$pb/CMakeCache.txt" ]; then
  cmake -S perfbench -B "$pb" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$pb" -j 4 >/dev/null
for w in read_mostly write_heavy failover; do
  for t in 0 1; do
    "$pb/perfbench" --workload "$w" --seed 7 --seconds 0 --trace "$t" \
      | grep -F '[sim]' >"$out/perfbench_${w}_trace$t.txt"
  done
done

# Paper-figure benchmarks: schema-documented JSON, simulated time only.
"$bin/bench/bench_msg_disk_counts" --json "$out/BENCH_msg_disk.json" >/dev/null
"$bin/bench/bench_fig7_latency" --quick --json "$out/BENCH_fig7.json" >/dev/null
"$bin/bench/bench_fig8_lookup_throughput" --quick \
  --json "$out/BENCH_fig8.json" >/dev/null
"$bin/bench/bench_fig9_update_throughput" --quick \
  --json "$out/BENCH_fig9.json" >/dev/null
"$bin/bench/bench_lease_batch" --quick --json "$out/BENCH_lease.json" >/dev/null

# Engine digest: a hash of every dispatched event of the whole-stack runs.
"$bin/bench/bench_engine" --quick --digest "$out/engine.digest" >/dev/null

# Causal-tracing report, availability SLO scorecard and peer-health table.
"$bin/tools/simreport" --out "$out/SIMREPORT.txt" >/dev/null
"$bin/tools/simreport" --slo --out "$out/SLO.txt" \
  --slo-json "$out/SLO.json" >/dev/null
"$bin/tools/simreport" --health --out "$out/HEALTH.txt" >/dev/null

# Chrome trace exports: the plain run and one under a fault schedule.
"$bin/tools/simreport" --chrome-json "$out/trace_group.json" \
  --flavor group --seed 1 >/dev/null
"$bin/tools/simreport" --chrome-json "$out/trace_nemesis.json" \
  --flavor group_nvram --nemesis c1/800/500 >/dev/null

# Design ablations (resilience, replica count, NVRAM size, recovery rule,
# PB vs BB ordering): its tables print simulated time only.
"$bin/bench/bench_ablations" >"$out/ablations.txt"

# Fuzzing verdicts: one line per run, plus the group flavors with leases
# and sequencer batching, so batched sequencing under faults is compared.
"$bin/tools/simfuzz" --flavor all --seeds 5 --dump-dir none >"$out/simfuzz.txt"
for f in group group_nvram; do
  "$bin/tools/simfuzz" --flavor "$f" --seeds 5 --leases --batching \
    --dump-dir none >"$out/simfuzz_${f}_batching.txt"
done
# Batched sequencing on a small NVRAM: batch log records, flushes,
# cancellation and replay under faults.
"$bin/tools/simfuzz" --flavor group_nvram --seeds 5 --batching \
  --nvram-bytes 2048 --dump-dir none >"$out/simfuzz_group_nvram_batching_2k.txt"
