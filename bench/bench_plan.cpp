// Plan-IR performance: wall-clock cost of routing through the shared
// PlanExecutor for every compiled family, scalar and batched.  The batched
// Revsort numbers run the same shapes as bench_sim_speed's
// BM_RouteBatchRevsort, so the two suites can be compared directly -- the
// refactor's acceptance bar is plan throughput within 5% of the pre-plan
// engine (they share the same counting kernels, so any gap is dispatch
// overhead).  Artifacts print each family's compiled structure.
#include <cstdio>

#include "bench_common.hpp"
#include "plan/compile.hpp"
#include "plan/plan_analysis.hpp"
#include "plan/plan_executor.hpp"
#include "util/rng.hpp"

namespace {

namespace plan = pcs::plan;

void print_artifacts() {
  pcs::bench::artifact_header("P2", "compiled switch plans (structure + tallies)");
  const plan::SwitchPlan plans[] = {
      plan::compile_revsort_plan(256, 128),
      plan::compile_columnsort_plan(64, 8, 256),
      plan::compile_multipass_plan(64, 8, 3, 256,
                                   plan::ReshapeSchedule::kAlternating),
      plan::compile_full_revsort_plan(256),
      plan::compile_full_columnsort_plan(64, 4),
  };
  for (const plan::SwitchPlan& p : plans) {
    std::printf("%s\n", p.summary().c_str());
    std::printf("%s\n", plan::analyze_plan(p).summary().c_str());
  }
  std::printf("(digest-pinned in tests/test_plan_ir.cpp; identical wiring is\n"
              " what makes the plan executor bit-for-bit with the legacy\n"
              " per-family recipes.)\n");
}

void route_batch_loop(benchmark::State& state, const plan::PlanExecutor& exec,
                      std::size_t batch) {
  pcs::Rng rng(7001);  // same seed/density as bench_sim_speed's loops
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

void BM_PlanRouteScalarRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  plan::PlanExecutor exec(plan::compile_revsort_plan(n, n / 2));
  pcs::Rng rng(7001);
  pcs::BitVec valid = rng.bernoulli_bits(n, 0.5);
  std::size_t routed = 0;
  for (auto _ : state) {
    routed += exec.route(valid).routed_count();
    benchmark::DoNotOptimize(routed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlanRouteScalarRevsort)->Arg(1 << 10)->Arg(1 << 14);

// Same shapes and batch as BM_RouteBatchRevsort (bench_sim_speed.cpp).
void BM_PlanRouteBatchRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  plan::PlanExecutor exec(plan::compile_revsort_plan(n, n / 2));
  route_batch_loop(state, exec, 64);
}
BENCHMARK(BM_PlanRouteBatchRevsort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_PlanRouteBatchColumnsort(benchmark::State& state) {
  const std::size_t r = static_cast<std::size_t>(state.range(0));
  plan::PlanExecutor exec(plan::compile_columnsort_plan(r, 16, r * 8));
  route_batch_loop(state, exec, 64);
}
BENCHMARK(BM_PlanRouteBatchColumnsort)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 14);

// No counting kernel for the multipass/full families: this measures the
// generic staged LaneBatch pipeline.
void BM_PlanRouteBatchMultipass(benchmark::State& state) {
  const std::size_t r = static_cast<std::size_t>(state.range(0));
  plan::PlanExecutor exec(plan::compile_multipass_plan(
      r, 16, 3, r * 8, plan::ReshapeSchedule::kAlternating));
  route_batch_loop(state, exec, 64);
}
BENCHMARK(BM_PlanRouteBatchMultipass)->Arg(1 << 8)->Arg(1 << 12);

void BM_PlanRouteBatchFullRevsort(benchmark::State& state) {
  plan::PlanExecutor exec(
      plan::compile_full_revsort_plan(static_cast<std::size_t>(state.range(0))));
  route_batch_loop(state, exec, 64);
}
BENCHMARK(BM_PlanRouteBatchFullRevsort)->Arg(1 << 10)->Arg(1 << 14);

// Faulty plans lose the counting kernels: the cost of graceful degradation
// is the generic pipeline, measured here against the healthy twin above.
void BM_PlanRouteBatchFaultyRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  plan::SwitchPlan p = plan::compile_revsort_plan(n, n / 2);
  plan::apply_chip_faults(p, {plan::ChipFault{0, 3}, plan::ChipFault{1, 7}});
  plan::PlanExecutor exec(std::move(p));
  route_batch_loop(state, exec, 64);
}
BENCHMARK(BM_PlanRouteBatchFaultyRevsort)->Arg(1 << 10)->Arg(1 << 14);

void BM_PlanNearsortBatchRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  plan::PlanExecutor exec(plan::compile_revsort_plan(n, n / 2));
  pcs::Rng rng(7001);
  std::vector<pcs::BitVec> valids;
  for (std::size_t i = 0; i < 64; ++i) {
    valids.push_back(rng.bernoulli_bits(n, 0.5));
  }
  std::size_t ones = 0;
  for (auto _ : state) {
    for (const auto& arr : exec.nearsorted_batch(valids)) ones += arr.count();
    benchmark::DoNotOptimize(ones);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlanNearsortBatchRevsort)->Arg(1 << 10)->Arg(1 << 14);

// Compilation itself stays off every route path; this pins its cost.
void BM_PlanCompileRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan::compile_revsort_plan(n, n / 2));
  }
}
BENCHMARK(BM_PlanCompileRevsort)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
