// Thread-scaling curve for the batched plan executor: the same routing
// workloads as bench_plan, swept over a process-wide parallelism clamp of
// 1/2/4/8 threads (set_max_parallelism).  Batched routing parallelizes
// across chunks of the pattern batch, so the curve measures how far the
// per-chunk scratch reuse and the fused kernels scale before the memory
// system saturates.  The sweep publishes to BENCH_threads.json; EXPERIMENTS
// reads the threads=1..N series from there.  On a 1-vCPU host the clamp
// still exercises the pool handoff, but the curve is flat by construction
// -- the JSON records whatever the machine can actually show.
//
// The BM_ThreadsSmallRevsort rows sweep the other axis: small dispatches of
// fabric_omega's node, Revsort(256 -> 192), from 4 to 1024 patterns.  They
// are the sweep behind kMinChunkWork (util/parallel.hpp), the work below
// which a dispatch runs inline instead of fanning out over the pool.
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "plan/compile.hpp"
#include "plan/plan_executor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

namespace plan = pcs::plan;

void print_artifacts() {
  pcs::bench::artifact_header(
      "P3", "thread-scaling sweep (set_max_parallelism 1/2/4/8)");
  // Host-dependent, so it goes to stderr: stdout stays the golden table.
  std::fprintf(stderr, "hardware_concurrency: %u\n",
               std::thread::hardware_concurrency());
  std::printf("(each BM_* below takes the clamp as its benchmark arg; the\n"
              " items/s series across args is the scaling curve.)\n");
}

/// Clamp parallelism for the duration of one benchmark run and restore the
/// previous clamp afterwards, so --benchmark_filter reruns stay honest.
class ParallelismClamp {
 public:
  explicit ParallelismClamp(std::size_t threads)
      : prev_(pcs::max_parallelism()) {
    pcs::set_max_parallelism(threads);
  }
  ~ParallelismClamp() { pcs::set_max_parallelism(prev_); }

 private:
  std::size_t prev_;
};

void route_batch_loop(benchmark::State& state, const plan::PlanExecutor& exec,
                      std::size_t batch, double density = 0.5) {
  pcs::Rng rng(7001);  // same seed/density as bench_plan's loops
  std::vector<pcs::BitVec> valids;
  valids.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    valids.push_back(rng.bernoulli_bits(exec.inputs(), density));
  }
  std::size_t routed = 0;
  for (auto _ : state) {
    for (const auto& r : exec.route_batch(valids)) routed += r.routed_count();
    benchmark::DoNotOptimize(routed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch) *
                          static_cast<std::int64_t>(exec.inputs()));
}

// Counting-kernel family: chunks of the 256-pattern batch run on separate
// workers, each with its own RevsortScratch.
void BM_ThreadsRouteBatchRevsort(benchmark::State& state) {
  const ParallelismClamp clamp(static_cast<std::size_t>(state.range(0)));
  plan::PlanExecutor exec(plan::compile_revsort_plan(1 << 14, 1 << 13));
  route_batch_loop(state, exec, 256);
}
BENCHMARK(BM_ThreadsRouteBatchRevsort)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Generic staged pipeline (no counting kernel): the multipass family's
// per-chunk StageScratch is what the sweep stresses here.
void BM_ThreadsRouteBatchMultipass(benchmark::State& state) {
  const ParallelismClamp clamp(static_cast<std::size_t>(state.range(0)));
  plan::PlanExecutor exec(plan::compile_multipass_plan(
      1 << 10, 16, 3, 1 << 13, plan::ReshapeSchedule::kAlternating));
  route_batch_loop(state, exec, 256);
}
BENCHMARK(BM_ThreadsRouteBatchMultipass)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Faulted plans drop to the fused lane pipeline; its chunked batch walk
// shares the same parallel_for_chunks grain as the healthy paths.
void BM_ThreadsRouteBatchFaultyRevsort(benchmark::State& state) {
  const ParallelismClamp clamp(static_cast<std::size_t>(state.range(0)));
  plan::SwitchPlan p = plan::compile_revsort_plan(1 << 14, 1 << 13);
  plan::apply_chip_faults(p, {plan::ChipFault{0, 3}, plan::ChipFault{1, 7}});
  plan::PlanExecutor exec(std::move(p));
  route_batch_loop(state, exec, 256);
}
BENCHMARK(BM_ThreadsRouteBatchFaultyRevsort)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Small dispatches: args are (threads, patterns, valid bits per 1000
// wires).  5 per mille is fabric_omega's grant density (about 1.3 granted
// messages per 256-wire pattern); 500 is bench_plan's.  Items are
// wire-patterns, so items/s compares across batch sizes.
void BM_ThreadsSmallRevsort(benchmark::State& state) {
  const ParallelismClamp clamp(static_cast<std::size_t>(state.range(0)));
  static const plan::PlanExecutor exec(plan::compile_revsort_plan(256, 192));
  route_batch_loop(state, exec, static_cast<std::size_t>(state.range(1)),
                   static_cast<double>(state.range(2)) / 1000.0);
}
BENCHMARK(BM_ThreadsSmallRevsort)
    ->ArgNames({"threads", "patterns", "permille"})
    ->ArgsProduct({{1, 4}, {4, 16, 32, 64, 96, 128, 192, 256, 512, 1024}, {5, 500}});

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
