// Reproduces Section 6's full-sorting variants (experiment D8): multichip
// *hyper*concentrators from complete Revsort (repetitions + Shearsort) and
// complete eight-step Columnsort.
//
// For each size: structural chip-pass count (Revsort: 2 lg lg n + 6 in our
// accounting vs the paper's 2 lg lg n + 4 -- see EXPERIMENTS.md D8), delay
// (ours vs the paper's printed 4 lg n lg lg n + 8 lg n formula), chip count,
// volume, and a correctness sweep confirming full hyperconcentration.
#include <cstdio>

#include "bench_common.hpp"
#include "cost/layout.hpp"
#include "cost/render.hpp"
#include "cost/resource_model.hpp"
#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace {

bool verify_hyper(const pcs::sw::ConcentratorSwitch& sw, pcs::Rng& rng, int trials) {
  for (int t = 0; t < trials; ++t) {
    pcs::BitVec valid = rng.bernoulli_bits(sw.inputs(), rng.uniform01());
    pcs::sw::SwitchRouting r = sw.route(valid);
    if (!r.is_partial_injection()) return false;
    const std::size_t k = valid.count();
    if (r.routed_count() != k) return false;
    for (std::size_t j = 0; j < sw.outputs(); ++j) {
      if ((r.input_of_output[j] >= 0) != (j < k)) return false;
    }
  }
  return true;
}

void print_artifacts() {
  using namespace pcs;
  Rng rng(6001);
  const cost::DelayModel zero{.pad_delay = 0, .shifter_delay = 0};

  pcs::bench::artifact_header("D8a", "full-Revsort hyperconcentrator");
  std::printf("%10s %6s %8s %14s %12s %14s %10s %12s %8s\n", "n", "reps",
              "passes", "delay(model)", "paper-delay", "chips", "pins",
              "volume", "sorts?");
  for (std::size_t side : {8u, 16u, 32u, 64u}) {
    const std::size_t n = side * side;
    const plan::PlanSwitch sw(make_switch_plan({"full-revsort", n}));
    cost::ResourceReport r = cost::full_revsort_report(n, zero);
    bool ok = verify_hyper(sw, rng, 40) && sw.executor().extra_phases_used() == 0;
    // One shifter stage of `side` chips per Revsort repetition.
    std::printf("%10zu %6zu %8zu %14zu %12zu %14zu %10zu %12zu %8s\n", n,
                sw.plan().shifter_count() / side, sw.plan().chip_passes(),
                r.gate_delays,
                cost::paper_full_revsort_delay_formula(n), r.chip_count,
                r.pins_per_chip, r.volume_3d, ok ? "yes" : "NO");
  }
  std::printf("(paper's Section 4-consistent per-chip delay gives passes * lg n;\n"
              " the printed Section 6 formula is ~2x that -- flagged in "
              "EXPERIMENTS.md)\n");

  pcs::bench::artifact_header("D8b", "full-Columnsort hyperconcentrator");
  std::printf("%10s %6s %6s %8s %14s %14s %10s %12s %8s\n", "n", "r", "s",
              "passes", "delay(model)", "paper 8b lg n", "chips", "volume",
              "sorts?");
  for (auto [r, s] : {std::pair<std::size_t, std::size_t>{32, 4},
                      std::pair<std::size_t, std::size_t>{128, 8},
                      std::pair<std::size_t, std::size_t>{512, 8},
                      std::pair<std::size_t, std::size_t>{512, 16}}) {
    const std::size_t n = r * s;
    const plan::PlanSwitch sw(
        make_switch_plan({.family = "full-columnsort", .r = r, .s = s}));
    cost::ResourceReport rep = cost::full_columnsort_report(r, s, zero);
    bool ok = verify_hyper(sw, rng, 40);
    // Paper: 8 beta lg n + O(1) = 8 lg r.
    std::printf("%10zu %6zu %6zu %8zu %14zu %14u %10zu %12zu %8s\n", n, r, s,
                sw.plan().chip_passes(), rep.gate_delays,
                8 * ceil_log2(r), rep.chip_count, rep.volume_3d, ok ? "yes" : "NO");
  }

  pcs::bench::artifact_header("D8 packaging",
                              "full-Revsort stacks (Section 6, side = 16)");
  std::fputs(pcs::cost::render_packaging(pcs::cost::full_revsort_packaging(16))
                 .c_str(),
             stdout);

  pcs::bench::artifact_header(
      "D8c", "partial vs full: what full sorting costs (n = 4096)");
  cost::ResourceReport part = cost::revsort_report(4096, 4096, zero);
  cost::ResourceReport full = cost::full_revsort_report(4096, zero);
  std::printf("  revsort partial: delay %zu, chips %zu, volume %zu\n",
              part.gate_delays, part.chip_count, part.volume_3d);
  std::printf("  revsort full:    delay %zu, chips %zu, volume %zu\n",
              full.gate_delays, full.chip_count, full.volume_3d);
  std::printf("  -> %.2fx delay, %.2fx chips for epsilon 0 instead of %zu\n",
              static_cast<double>(full.gate_delays) / part.gate_delays,
              static_cast<double>(full.chip_count) / part.chip_count, part.epsilon);
}

void BM_FullRevsortRoute(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto sw = pcs::make_switch({"full-revsort", n});
  pcs::Rng rng(6002);
  pcs::BitVec valid = rng.bernoulli_bits(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw->route(valid));
  }
}
BENCHMARK(BM_FullRevsortRoute)->Arg(1 << 10)->Arg(1 << 12);

void BM_FullColumnsortRoute(benchmark::State& state) {
  const auto sw =
      pcs::make_switch({.family = "full-columnsort", .r = 512, .s = 8});
  pcs::Rng rng(6003);
  pcs::BitVec valid = rng.bernoulli_bits(4096, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw->route(valid));
  }
}
BENCHMARK(BM_FullColumnsortRoute);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
