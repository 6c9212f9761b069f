// Reproduces Figure 1 (experiment F1): the structure of an
// epsilon-nearsorted 0/1 sequence -- a clean run of at least k - epsilon 1s,
// a dirty window of at most 2*epsilon bits, and a clean run of at least
// n - k - epsilon 0s (Lemma 1).
//
// We drive both multichip switches with random valid bits across a sweep of
// k and print the measured decomposition next to the Lemma 1 envelope.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/lemmas.hpp"
#include "plan/plan_switch.hpp"
#include "sortnet/nearsort.hpp"
#include "switch/make_switch.hpp"
#include "util/rng.hpp"

namespace {

void print_structure_table(const pcs::sw::ConcentratorSwitch& sw, pcs::Rng& rng) {
  const std::size_t n = sw.inputs();
  std::printf("switch %s, n=%zu, epsilon bound %zu\n", sw.name().c_str(), n,
              sw.epsilon_bound());
  std::printf("%8s %10s %10s %10s %10s %12s %14s\n", "k", "clean-1s", "window",
              "clean-0s", "eps-meas", "eps-bound", "lemma1-holds");
  for (std::size_t k = 0; k <= n; k += std::max<std::size_t>(1, n / 8)) {
    // Worst case over a handful of trials at this k.
    std::size_t worst_eps = 0, worst_window = 0;
    std::size_t clean1 = 0, clean0 = 0;
    bool lemma_ok = true;
    for (int t = 0; t < 20; ++t) {
      pcs::BitVec valid = rng.exact_weight_bits(n, k);
      pcs::BitVec arr = sw.nearsorted_valid_bits(valid);
      auto w = pcs::sortnet::dirty_window(arr);
      std::size_t eps = pcs::sortnet::min_nearsort_epsilon(arr);
      if (eps >= worst_eps) {
        worst_eps = eps;
        worst_window = w.dirty_length();
        clean1 = w.clean_ones;
        clean0 = w.clean_zeros;
      }
      lemma_ok = lemma_ok && pcs::core::lemma1_roundtrip(arr);
    }
    std::printf("%8zu %10zu %10zu %10zu %10zu %12zu %14s\n", k, clean1, worst_window,
                clean0, worst_eps, sw.epsilon_bound(), lemma_ok ? "yes" : "NO");
  }
}

void print_artifacts() {
  pcs::Rng rng(1001);
  pcs::bench::artifact_header("Figure 1", "nearsorted-sequence structure (Lemma 1)");
  const pcs::plan::PlanSwitch rev(
      pcs::make_switch_plan({"revsort", 1024, 1024}));
  print_structure_table(rev, rng);
  std::printf("\n");
  const pcs::plan::PlanSwitch col(
      pcs::make_switch_plan({.family = "columnsort", .m = 1024, .r = 128, .s = 8}));
  print_structure_table(col, rng);
  std::printf(
      "\nLemma 1 envelope: clean-1s >= k - eps, window <= 2*eps, "
      "clean-0s >= n - k - eps.\n");
}

void BM_MinNearsortEpsilon(benchmark::State& state) {
  pcs::Rng rng(1002);
  pcs::BitVec v = rng.bernoulli_bits(static_cast<std::size_t>(state.range(0)), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcs::sortnet::min_nearsort_epsilon(v));
  }
}
BENCHMARK(BM_MinNearsortEpsilon)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
