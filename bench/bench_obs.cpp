// Observability overhead: what the tracing layer costs in each of its three
// states, measured on the hottest kernel in the library (the batched Revsort
// counting path, same shape and seed as bench_plan's
// BM_PlanRouteBatchRevsort/16384).
//
// The acceptance bar is "compiled in but disabled within 2% of compiled
// out"; the compiled-out side comes from a -DPCS_TRACING=OFF build of this
// same binary, so the comparison is like for like on one machine:
//
//   cmake -B build-notrace -S . -DPCS_TRACING=OFF
//   cmake --build build-notrace -j --target bench_obs
//   for b in build build-notrace; do
//     ./$b/bench/bench_obs --benchmark_filter=Disabled
//       --benchmark_min_time=2 --benchmark_repetitions=3
//       --benchmark_report_aggregates_only=true    (one line)
//   done
//
// The Enabled benchmarks bound the cost of actually recording: the faulty
// (scalar-path) variant emits one span per chip evaluation -- the worst
// span density in the library -- and the SpanGuard micro-benchmarks price a
// single instrumentation site.
#include <cstdio>

#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "plan/compile.hpp"
#include "plan/plan_executor.hpp"
#include "util/rng.hpp"

namespace {

namespace obs = pcs::obs;
namespace plan = pcs::plan;

void print_artifacts() {
  pcs::bench::artifact_header("O1", "tracing build states");
  // Build-dependent, so it goes to stderr: stdout stays the golden table.
  std::fprintf(stderr, "tracing compiled in: %s\n",
               obs::kCompiledIn ? "yes" : "no");
  std::printf(
      "states measured: Disabled (gate check only), Enabled (spans+counters\n"
      "recorded and drained).  Compare Disabled here against the same\n"
      "benchmark in a -DPCS_TRACING=OFF build for the <2%% acceptance bar.\n");
}

// Same shape, seed, and batch as bench_plan's BM_PlanRouteBatchRevsort.
void route_batch_loop(benchmark::State& state, const plan::PlanExecutor& exec,
                      std::size_t batch) {
  pcs::Rng rng(7001);
  std::vector<pcs::BitVec> valids;
  valids.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    valids.push_back(rng.bernoulli_bits(exec.inputs(), 0.5));
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

// The acceptance benchmark: tracing sites present (when compiled in) but the
// tracer disabled, on the fast-path counting kernel.
void BM_ObsDisabledRouteBatchRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  plan::PlanExecutor exec(plan::compile_revsort_plan(n, n / 2));
  route_batch_loop(state, exec, 64);
}
BENCHMARK(BM_ObsDisabledRouteBatchRevsort)->Arg(1 << 14);

// Recording cost on the fast path: one batch span per chunk plus the
// words_routed tally -- spans stay coarse, so this should track the
// disabled number closely.
void BM_ObsEnabledRouteBatchRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  plan::PlanExecutor exec(plan::compile_revsort_plan(n, n / 2));
  obs::Tracer::instance().enable(obs::ClockMode::kTsc);
  route_batch_loop(state, exec, 64);
  obs::Tracer::instance().disable();
  obs::TraceSnapshot snap = obs::Tracer::instance().drain();
  state.counters["spans"] = static_cast<double>(snap.spans.size());
}
BENCHMARK(BM_ObsEnabledRouteBatchRevsort)->Arg(1 << 14);

// Worst span density: a faulted plan loses its counting kernel, so every
// chip evaluation in the scalar pipeline opens a span.
void BM_ObsEnabledRouteFaultyRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  plan::SwitchPlan p = plan::compile_revsort_plan(n, n / 2);
  plan::apply_chip_faults(p, {{0, 0}});
  plan::PlanExecutor exec(std::move(p));
  pcs::Rng rng(7001);
  pcs::BitVec valid = rng.bernoulli_bits(n, 0.5);
  obs::Tracer::instance().enable(obs::ClockMode::kTsc);
  std::size_t routed = 0;
  for (auto _ : state) {
    routed += exec.route(valid).routed_count();
    benchmark::DoNotOptimize(routed);
  }
  obs::Tracer::instance().disable();
  obs::Tracer::instance().clear();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ObsEnabledRouteFaultyRevsort)->Arg(1 << 10);

// Price of one instrumentation site, disabled: the relaxed-load gate.
void BM_ObsSpanGuardDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::SpanGuard span("bench.span", obs::cat::kPlan);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanGuardDisabled);

// Price of one recorded span: two clock reads plus a buffer append.
void BM_ObsSpanGuardEnabled(benchmark::State& state) {
  if (!obs::kCompiledIn) {
    state.SkipWithError("tracing compiled out");
    return;
  }
  obs::Tracer::instance().enable(obs::ClockMode::kTsc);
  for (auto _ : state) {
    obs::SpanGuard span("bench.span", obs::cat::kPlan);
    benchmark::DoNotOptimize(&span);
  }
  obs::Tracer::instance().disable();
  obs::Tracer::instance().clear();
}
BENCHMARK(BM_ObsSpanGuardEnabled);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
