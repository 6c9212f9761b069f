// Reproduces the load-ratio claims (experiments D4, D5):
//   D4 -- the partial-concentration contract: for k <= alpha*m every valid
//         message is routed; beyond, at least alpha*m outputs fill.  We
//         sweep k, report the measured lossless threshold (largest k with
//         zero loss over trials), and compare against the guaranteed
//         capacity m - epsilon from Lemma 2.
//   D5 -- an (n/alpha, m/alpha, alpha) partial concentrator substituted for
//         an n-by-m perfect concentrator.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/epsilon_stats.hpp"
#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "switch/perfect_from_partial.hpp"
#include "util/rng.hpp"

namespace {

void sweep_switch(const pcs::sw::ConcentratorSwitch& sw, pcs::Rng& rng) {
  const std::size_t n = sw.inputs();
  const std::size_t m = sw.outputs();
  const std::size_t capacity = sw.guaranteed_capacity();
  std::printf("\n%s: n=%zu m=%zu epsilon=%zu alpha=%.4f capacity=%zu\n",
              sw.name().c_str(), n, m, sw.epsilon_bound(), sw.load_ratio_bound(),
              capacity);
  std::printf("%8s %10s %12s %12s\n", "k", "routed-min", "routed-avg", "lossless");
  std::size_t measured_threshold = 0;
  bool still_lossless = true;
  for (std::size_t k = 0; k <= n; k += std::max<std::size_t>(1, n / 12)) {
    std::size_t min_routed = n + 1;
    std::size_t total = 0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      pcs::BitVec valid = rng.exact_weight_bits(n, k);
      std::size_t routed = sw.route(valid).routed_count();
      min_routed = std::min(min_routed, routed);
      total += routed;
    }
    bool lossless = (min_routed == k);
    if (still_lossless && lossless) {
      measured_threshold = k;
    } else {
      still_lossless = still_lossless && lossless;
    }
    std::printf("%8zu %10zu %12.1f %12s\n", k, min_routed,
                static_cast<double>(total) / trials, lossless ? "yes" : "no");
  }
  std::printf("guaranteed lossless up to k=%zu; measured lossless through k=%zu "
              "(random patterns)\n",
              capacity, measured_threshold);
}

void print_artifacts() {
  pcs::Rng rng(4001);
  pcs::bench::artifact_header("D4", "partial-concentration contract, k sweep");
  const pcs::plan::PlanSwitch hyper(
      pcs::make_switch_plan({"hyper", 1024, 512}));
  sweep_switch(hyper, rng);
  const pcs::plan::PlanSwitch rev(
      pcs::make_switch_plan({"revsort", 1024, 768}));
  sweep_switch(rev, rng);
  const pcs::plan::PlanSwitch col(
      pcs::make_switch_plan({.family = "columnsort", .m = 768, .r = 128, .s = 8}));
  sweep_switch(col, rng);
  const pcs::plan::PlanSwitch col_wide(
      pcs::make_switch_plan({.family = "columnsort", .m = 768, .r = 256, .s = 4}));
  sweep_switch(col_wide, rng);

  pcs::bench::artifact_header(
      "D4b", "epsilon distribution: typical vs worst vs theorem bound");
  std::printf("%-28s %8s %8s %8s %8s %8s %8s %10s\n", "switch", "density", "mean",
              "p50", "p90", "p99", "max", "bound");
  {
    const pcs::plan::PlanSwitch sw(
        pcs::make_switch_plan({"revsort", 1024, 1024}));
    for (double d : {0.25, 0.5, 0.75}) {
      auto s = pcs::core::collect_epsilon_stats(sw, 300, d, rng);
      std::printf("%-28s %8.2f %8.1f %8zu %8zu %8zu %8zu %10zu\n",
                  sw.name().c_str(), d, s.mean, s.p50, s.p90, s.p99, s.max,
                  sw.epsilon_bound());
    }
  }
  {
    const pcs::plan::PlanSwitch sw(
        pcs::make_switch_plan({.family = "columnsort", .m = 1024, .r = 128, .s = 8}));
    for (double d : {0.25, 0.5, 0.75}) {
      auto s = pcs::core::collect_epsilon_stats(sw, 300, d, rng);
      std::printf("%-28s %8.2f %8.1f %8zu %8zu %8zu %8zu %10zu\n",
                  sw.name().c_str(), d, s.mean, s.p50, s.p90, s.p99, s.max,
                  sw.epsilon_bound());
    }
  }
  std::printf("(retry traffic is driven by the typical epsilon, not the bound.)\n");

  pcs::bench::artifact_header("D5", "perfect concentrator from a partial one");
  // Inner: columnsort (r=128, s=8) n=1024, m_inner=1024, eps=49 ->
  // capacity 975.  Wrap as a 512-by-487 perfect concentrator and check the
  // min(k, m) guarantee.
  const pcs::plan::PlanSwitch inner(
      pcs::make_switch_plan({.family = "columnsort", .m = 1024, .r = 128, .s = 8}));
  pcs::sw::PerfectFromPartial perfect(inner, 512, 487);
  std::printf("inner %s; wrapper n=%zu m=%zu, wire overhead %.3fx\n",
              inner.name().c_str(), perfect.inputs(), perfect.outputs(),
              perfect.input_overhead());
  std::printf("%8s %12s %12s\n", "k", "guaranteed", "routed-min");
  for (std::size_t k = 0; k <= 512; k += 64) {
    std::size_t min_routed = 1024;
    for (int t = 0; t < 20; ++t) {
      pcs::BitVec valid = rng.exact_weight_bits(512, k);
      min_routed = std::min(min_routed, perfect.route(valid).routed_count());
    }
    std::printf("%8zu %12zu %12zu\n", k, perfect.guaranteed_routed(k), min_routed);
  }
}

void BM_RouteRevsort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pcs::plan::PlanSwitch sw(pcs::make_switch_plan({"revsort", n, n / 2}));
  pcs::Rng rng(4002);
  pcs::BitVec valid = rng.bernoulli_bits(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.route(valid));
  }
}
BENCHMARK(BM_RouteRevsort)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
