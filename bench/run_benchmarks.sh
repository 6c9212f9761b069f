#!/usr/bin/env sh
# Run the simulator-performance benchmarks and leave machine-readable JSON
# at the repo root, one file per bench (BENCH_sim_speed.json,
# BENCH_throughput.json, BENCH_plan.json, BENCH_threads.json,
# BENCH_obs.json, BENCH_fabric.json, BENCH_serve.json,
# BENCH_traffic.json).  bench_serve
# prices the daemon's wire protocol (encode/decode/FrameReader) and the
# plan cache's hit vs cold-compile paths.  bench_fabric sweeps the multi-hop
# fabric hop count (1/2/3 hops of the same plan-compiled node) for the
# composition-overhead curve.  bench_plan runs the same batched-Revsort shapes as
# bench_sim_speed so the plan executor's throughput can be compared
# directly against the pre-plan engine.  The *Legacy rows in the committed
# BENCH_plan.json are a PR 6 record of the unfused engine, which has since
# moved to tests/ as an oracle; a fresh run no longer emits them.  Likewise
# the BM_SimulateRounds row in the committed BENCH_throughput.json is a record
# of the deleted round simulator (bench_runtime times the engine that
# replaced it).  bench_threads
# sweeps set_max_parallelism over 1/2/4/8 for the threads=1..N scaling
# curve.  bench_traffic prices the composable traffic sources (valid-bit
# epochs, destination draws, trace-record overhead, bound-stress search).
#
# Usage: bench/run_benchmarks.sh [build-dir]
# Always builds the benchmarks before running them: configuring only happens
# on a fresh build directory, but `cmake --build` runs unconditionally (a
# cheap no-op when everything is fresh), so edited benches are never
# silently run stale.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" -j --target \
  bench_sim_speed bench_throughput bench_plan bench_threads bench_obs \
  bench_fabric bench_serve bench_traffic

for bench in sim_speed throughput plan threads obs fabric serve traffic; do
  # The plan A/B is the PR-acceptance artifact; on a shared vCPU the host's
  # memory-bandwidth contention swings short runs +/-12%, so give each case
  # a long enough window to average over the bursts.
  extra=""
  [ "$bench" = plan ] && extra="--benchmark_min_time=2"
  # The fabric pipelined twins (F2) resolve a serial-vs-pipelined gap that
  # is smaller than the host's contention swings, so interleave repeated
  # samples and read the medians: every case then sees the same noise
  # phases instead of whichever burst its one time slot landed in.
  [ "$bench" = fabric ] && extra="--benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_min_time=0.3"
  # The small-dispatch rows of bench_threads compare inline and pooled
  # dispatches of a few microseconds each; same treatment.
  [ "$bench" = threads ] && extra="--benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_min_time=0.2"
  "$build_dir/bench/bench_$bench" \
    --benchmark_format=json \
    --benchmark_out="$repo_root/BENCH_$bench.json" \
    --benchmark_out_format=json \
    $extra
  echo "wrote $repo_root/BENCH_$bench.json"
done
