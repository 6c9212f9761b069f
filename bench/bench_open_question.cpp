// Explores the open questions of Section 6:
//   (a) "For what f(p) can we build an (Omega(f(p)), m, 1 - o(p/m)) partial
//        concentrator with two stages of p-pin chips?"  The Columnsort
//        construction realizes f(p) = p^{2-eps'}; we tabulate the realized
//        (n, epsilon) frontier for a grid of pin budgets.
//   (b) "How large an f(p) with k stages?"  The multipass Columnsort switch
//        adds passes; we measure (adversarially) how epsilon falls with the
//        pass count d, i.e. how much load ratio one extra chip crossing
//        (2 lg r gate delays) buys.
#include <cstdio>

#include "bench_common.hpp"
#include "core/adversary.hpp"
#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace {

pcs::SwitchSpec multipass(std::size_t r, std::size_t s, std::size_t passes,
                          std::size_t m, pcs::plan::ReshapeSchedule schedule) {
  return {.family = "multipass", .m = m, .r = r, .s = s, .passes = passes,
          .schedule = schedule};
}

void print_artifacts() {
  using namespace pcs;

  pcs::bench::artifact_header(
      "open Q (a)", "two-stage frontier: n vs pins p = 2r, eps = (s-1)^2");
  std::printf("%10s %10s %10s %14s %18s\n", "p (pins)", "s", "n = rs", "eps bound",
              "eps/p  (want o(1))");
  for (std::size_t r : {64u, 256u, 1024u}) {
    for (std::size_t s : {4u, 16u, 64u}) {
      if (r % s != 0) continue;
      const std::size_t p = 2 * r;
      const std::size_t n = r * s;
      const std::size_t eps = (s - 1) * (s - 1);
      std::printf("%10zu %10zu %10zu %14zu %18.4f\n", p, s, n, eps,
                  static_cast<double>(eps) / static_cast<double>(p));
    }
  }
  std::printf("(n = p^2/ (2*2) * s/r ... concretely n = (p/2) * s: pushing s up\n"
              " toward r reaches n ~ p^2/4 but epsilon grows as s^2 -- the\n"
              " f(p) = p^(2-eps') tradeoff the paper states.)\n");

  pcs::bench::artifact_header(
      "open Q (b)", "k-stage ablation: worst epsilon vs pass count (r=64, s=8)");
  std::printf("%8s %10s %14s %16s %16s %16s\n", "passes", "chips", "chip passes",
              "eps (same)", "eps (alt)", "delay/msg");
  Rng rng(9001);
  for (std::size_t d = 1; d <= 5; ++d) {
    const plan::PlanSwitch same(
        make_switch_plan(multipass(64, 8, d, 512, plan::ReshapeSchedule::kSame)));
    const plan::PlanSwitch alt(make_switch_plan(
        multipass(64, 8, d, 512, plan::ReshapeSchedule::kAlternating)));
    core::WorstCase ws = core::worst_epsilon_search(same, 30, 150, rng);
    core::WorstCase wa = core::worst_epsilon_search(alt, 30, 150, rng);
    const std::size_t passes = same.plan().chip_passes();
    std::printf("%8zu %10zu %14zu %16zu %16zu %16zu\n", d,
                same.plan().chip_count(), passes, ws.epsilon, wa.epsilon,
                passes * 2 * ceil_log2(64));
  }
  std::printf(
      "(finding: repeating the SAME CM->RM conversion hits a fixed point --\n"
      " worst epsilon stays at Theorem 4's (s-1)^2 no matter how many passes;\n"
      " ALTERNATING the conversion direction, as full Columnsort's steps 2/4\n"
      " do, drops the worst epsilon to ~s-1 by d = 3.  Each extra pass costs\n"
      " one chip crossing = 2 lg r gate delays.)\n");

  pcs::bench::artifact_header(
      "open Q (b')", "same ablation at a wider mesh (r=256, s=16)");
  std::printf("%8s %16s %16s\n", "passes", "eps (same)", "eps (alt)");
  for (std::size_t d = 1; d <= 4; ++d) {
    const auto same =
        make_switch(multipass(256, 16, d, 2048, plan::ReshapeSchedule::kSame));
    const auto alt = make_switch(
        multipass(256, 16, d, 2048, plan::ReshapeSchedule::kAlternating));
    core::WorstCase ws = core::worst_epsilon_search(*same, 15, 80, rng);
    core::WorstCase wa = core::worst_epsilon_search(*alt, 15, 80, rng);
    std::printf("%8zu %16zu %16zu\n", d, ws.epsilon, wa.epsilon);
  }
}

void BM_MultipassRoute(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const auto sw = pcs::make_switch(
      multipass(256, 16, d, 2048, pcs::plan::ReshapeSchedule::kSame));
  pcs::Rng rng(9002);
  pcs::BitVec valid = rng.bernoulli_bits(4096, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw->route(valid));
  }
}
BENCHMARK(BM_MultipassRoute)->Arg(1)->Arg(3)->Arg(5);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
