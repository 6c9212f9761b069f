// Serving-layer performance (experiment S1): epochs per second of the
// fabric runtime's closed loop -- admission, epoch-batched routing through
// route_batch, delivery accounting -- as lane count and switch family vary.
// The lane axis shows what batching across replicas buys over lanes=1
// (one route() worth of work per dispatch).
#include "bench_common.hpp"
#include "plan/plan_switch.hpp"
#include "runtime/fabric_runtime.hpp"
#include "switch/make_switch.hpp"
#include "traffic/traffic_source.hpp"

namespace {

void print_artifacts() {
  pcs::bench::artifact_header("S1", "fabric runtime serving loop (timings below)");
}

pcs::rt::RuntimeOptions bench_opts(std::size_t lanes) {
  pcs::rt::RuntimeOptions opts;
  opts.queue_depth = 4;
  opts.policy = pcs::rt::CongestionPolicy::kBufferRetry;
  opts.lanes = lanes;
  opts.seed = 7100;
  opts.warmup_epochs = 4;
  opts.measure_epochs = 32;
  opts.drain_epochs_max = 256;
  return opts;
}

void campaign_loop(benchmark::State& state, const pcs::sw::ConcentratorSwitch& sw,
                   std::size_t lanes) {
  const std::size_t n = sw.inputs();
  std::size_t epochs = 0;
  for (auto _ : state) {
    pcs::rt::FabricRuntime runtime(sw, bench_opts(lanes), [n](std::size_t) {
      return std::unique_ptr<pcs::traffic::TrafficSource>(
          std::make_unique<pcs::traffic::ComposedSource>(
              pcs::traffic::PatternKind::kUniform,
              std::make_unique<pcs::traffic::BernoulliProcess>(n, 0.5),
              0.125));
    });
    pcs::rt::MetricsRegistry metrics;
    runtime.run(metrics);
    epochs += metrics.counter("route_batch_dispatches").value();
    benchmark::DoNotOptimize(epochs);
  }
  // items = lane-setups resolved: epochs x lanes.
  state.SetItemsProcessed(static_cast<std::int64_t>(epochs) *
                          static_cast<std::int64_t>(lanes));
}

void BM_ServeRevsort(benchmark::State& state) {
  const pcs::plan::PlanSwitch sw(
      pcs::make_switch_plan({"revsort", 4096, 3072}));
  campaign_loop(state, sw, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ServeRevsort)->Arg(1)->Arg(8)->Arg(32);

void BM_ServeColumnsort(benchmark::State& state) {
  const pcs::plan::PlanSwitch sw(
      pcs::make_switch_plan({"columnsort", 4096, 3072, 0.75}));
  campaign_loop(state, sw, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ServeColumnsort)->Arg(1)->Arg(8)->Arg(32);

void BM_ServeHyper(benchmark::State& state) {
  const pcs::plan::PlanSwitch sw(pcs::make_switch_plan({"hyper", 4096, 2048}));
  campaign_loop(state, sw, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ServeHyper)->Arg(1)->Arg(8)->Arg(32);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
