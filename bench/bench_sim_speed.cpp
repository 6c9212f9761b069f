// Library performance (experiment P1): wall-clock cost of one setup
// (route()) for each switch design across sizes, the batch fast paths, and
// the nearsortedness analyzer.
// These are simulator numbers, not hardware claims.
#include "bench_common.hpp"
#include "sortnet/nearsort.hpp"
#include "switch/make_switch.hpp"
#include "util/rng.hpp"

namespace {

void print_artifacts() {
  pcs::bench::artifact_header("P1", "simulator throughput (see timings below)");
}

template <typename Switch>
void route_loop(benchmark::State& state, const Switch& sw) {
  pcs::Rng rng(7001);
  pcs::BitVec valid = rng.bernoulli_bits(sw.inputs(), 0.5);
  std::size_t routed = 0;
  for (auto _ : state) {
    routed += sw.route(valid).routed_count();
    benchmark::DoNotOptimize(routed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sw.inputs()));
}

void BM_RouteHyper(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto sw = pcs::make_switch({"hyper", n, n / 2});
  route_loop(state, *sw);
}
BENCHMARK(BM_RouteHyper)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_RouteRevsortMesh(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto sw = pcs::make_switch({"revsort", n, n / 2});
  route_loop(state, *sw);
}
BENCHMARK(BM_RouteRevsortMesh)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_RouteColumnsort(benchmark::State& state) {
  const std::size_t r = static_cast<std::size_t>(state.range(0));
  const auto sw =
      pcs::make_switch({.family = "columnsort", .m = r * 8, .r = r, .s = 16});
  route_loop(state, *sw);
}
BENCHMARK(BM_RouteColumnsort)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 14);

void BM_RouteFullRevsort(benchmark::State& state) {
  const auto sw =
      pcs::make_switch({"full-revsort", static_cast<std::size_t>(state.range(0))});
  route_loop(state, *sw);
}
BENCHMARK(BM_RouteFullRevsort)->Arg(1 << 10)->Arg(1 << 14);

// Batched setups: 64 valid-bit patterns per call through the word-parallel
// routing engine.  items/sec counts pattern-bits, directly comparable with
// the single-pattern loops above.
template <typename Switch>
void route_batch_loop(benchmark::State& state, const Switch& sw,
                      std::size_t batch) {
  pcs::Rng rng(7001);
  std::vector<pcs::BitVec> valids;
  valids.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    valids.push_back(rng.bernoulli_bits(sw.inputs(), 0.5));
  }
  std::size_t routed = 0;
  for (auto _ : state) {
    for (const auto& r : sw.route_batch(valids)) routed += r.routed_count();
    benchmark::DoNotOptimize(routed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch) *
                          static_cast<std::int64_t>(sw.inputs()));
}

template <typename Switch>
void nearsort_batch_loop(benchmark::State& state, const Switch& sw,
                         std::size_t batch) {
  pcs::Rng rng(7001);
  std::vector<pcs::BitVec> valids;
  valids.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    valids.push_back(rng.bernoulli_bits(sw.inputs(), 0.5));
  }
  std::size_t ones = 0;
  for (auto _ : state) {
    for (const auto& arr : sw.nearsorted_batch(valids)) ones += arr.count();
    benchmark::DoNotOptimize(ones);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch) *
                          static_cast<std::int64_t>(sw.inputs()));
}

void BM_RouteBatchHyper(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto sw = pcs::make_switch({"hyper", n, n / 2});
  route_batch_loop(state, *sw, 64);
}
BENCHMARK(BM_RouteBatchHyper)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_RouteBatchRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto sw = pcs::make_switch({"revsort", n, n / 2});
  route_batch_loop(state, *sw, 64);
}
BENCHMARK(BM_RouteBatchRevsort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_RouteBatchColumnsort(benchmark::State& state) {
  const std::size_t r = static_cast<std::size_t>(state.range(0));
  const auto sw =
      pcs::make_switch({.family = "columnsort", .m = r * 8, .r = r, .s = 16});
  route_batch_loop(state, *sw, 64);
}
BENCHMARK(BM_RouteBatchColumnsort)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 14);

void BM_NearsortBatchRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto sw = pcs::make_switch({"revsort", n, n / 2});
  nearsort_batch_loop(state, *sw, 64);
}
BENCHMARK(BM_NearsortBatchRevsort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_NearsortBatchColumnsort(benchmark::State& state) {
  const std::size_t r = static_cast<std::size_t>(state.range(0));
  const auto sw =
      pcs::make_switch({.family = "columnsort", .m = r * 8, .r = r, .s = 16});
  nearsort_batch_loop(state, *sw, 64);
}
BENCHMARK(BM_NearsortBatchColumnsort)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 14);

void BM_NearsortAnalysis(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  pcs::Rng rng(7003);
  pcs::BitVec v = rng.bernoulli_bits(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcs::sortnet::min_nearsort_epsilon(v));
  }
}
BENCHMARK(BM_NearsortAnalysis)->Arg(1 << 14)->Arg(1 << 20);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
