// Section 6's last open question, made executable: "There may be
// epsilon-nearsorters based on networks other than the two-dimensional mesh
// to which we can apply Lemma 2.  What types of partial concentrator
// switches can we build?"
//
// We apply Lemma 2 to comparator networks: full Batcher odd-even merge sort
// (a hyperconcentrator with Theta(n lg^2 n) comparators), its stage-prefix
// truncations (partial concentrators whose epsilon falls stage by stage),
// and odd-even transposition prefixes (a poor nearsorter, included as the
// negative control).  The trade frontier printed here answers the question
// concretely: truncating Batcher buys delay at a quantified epsilon cost,
// bracketed between the mesh designs.
#include <cstdio>

#include "bench_common.hpp"
#include "core/adversary.hpp"
#include "plan/plan_switch.hpp"
#include "sortnet/displacement.hpp"
#include "switch/comparator_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace {

void print_artifacts() {
  using namespace pcs;
  Rng rng(11001);

  const std::size_t n = 256;
  pcs::bench::artifact_header(
      "other nearsorters", "truncated Batcher prefix: epsilon vs stages (n=256)");
  auto full = sortnet::ComparatorNetwork::odd_even_mergesort(n);
  std::printf("full network: %zu stages, %zu comparators\n", full.stage_count(),
              full.comparator_count());
  std::printf("%8s %14s %12s %16s\n", "stages", "comparators", "delay(2/st)",
              "worst epsilon");
  for (std::size_t st = full.stage_count(); st + 1 > 12; st -= 4) {
    sw::ComparatorSwitch sw = sw::ComparatorSwitch::truncated_batcher(n, n, st, n);
    core::WorstCase wc = core::worst_epsilon_search(sw, 25, 120, rng);
    std::printf("%8zu %14zu %12zu %16zu\n", st,
                sw.network().comparator_count(), sw.gate_delay_model(), wc.epsilon);
  }

  pcs::bench::artifact_header(
      "other nearsorters", "odd-even transposition prefix (negative control)");
  std::printf("%8s %16s\n", "rounds", "worst epsilon");
  for (std::size_t rounds : {8u, 32u, 64u, 128u}) {
    auto net = sortnet::ComparatorNetwork::odd_even_transposition(n, rounds);
    sw::ComparatorSwitch sw(net, n, n, "oet-prefix");
    core::WorstCase wc = core::worst_epsilon_search(sw, 20, 80, rng);
    std::printf("%8zu %16zu\n", rounds, wc.epsilon);
  }
  std::printf("(brick rounds move 1s at most one slot per round: epsilon decays\n"
              " only linearly -- the mesh and Batcher nearsorters are the point.)\n");

  pcs::bench::artifact_header(
      "other nearsorters", "inversion removal per network (n=256, density 0.5)");
  std::printf("%-28s %14s %14s\n", "network", "inversions in", "inversions out");
  {
    Rng r2(11005);
    BitVec in = r2.bernoulli_bits(n, 0.5);
    std::uint64_t inv_in = sortnet::inversion_count(in);
    struct Net { const char* label; sortnet::ComparatorNetwork net; };
    const Net nets[] = {
        {"batcher full", sortnet::ComparatorNetwork::odd_even_mergesort(n)},
        {"batcher half-stages",
         sortnet::ComparatorNetwork::odd_even_mergesort(n).truncated(18)},
        {"brick 32 rounds",
         sortnet::ComparatorNetwork::odd_even_transposition(n, 32)},
    };
    for (const Net& e : nets) {
      std::printf("%-28s %14llu %14llu\n", e.label,
                  static_cast<unsigned long long>(inv_in),
                  static_cast<unsigned long long>(
                      sortnet::inversion_count(e.net.apply(in))));
    }
  }

  pcs::bench::artifact_header(
      "other nearsorters", "cross-family comparison at n=256, m=192");
  std::printf("%-28s %10s %14s %12s\n", "design", "delay", "eps (adv.)",
              "area proxy");
  {
    const plan::PlanSwitch rev(make_switch_plan({"revsort", n, 192}));
    core::WorstCase wc = core::worst_epsilon_search(rev, 25, 120, rng);
    // 3 chips of 2 lg 16 plus shifter wiring.
    std::printf("%-28s %10zu %14zu %12s\n", rev.name().c_str(),
                static_cast<std::size_t>(3 * 2 * ceil_log2(16)), wc.epsilon, "3n sqrt(n)");
  }
  {
    const plan::PlanSwitch col(
        make_switch_plan({.family = "columnsort", .m = 192, .r = 64, .s = 4}));
    core::WorstCase wc = core::worst_epsilon_search(col, 25, 120, rng);
    std::printf("%-28s %10zu %14zu %12s\n", col.name().c_str(),
                static_cast<std::size_t>(2 * 2 * ceil_log2(64)),
                wc.epsilon, "2nr");
  }
  {
    sw::ComparatorSwitch bat = sw::ComparatorSwitch::batcher_hyper(n, 192);
    std::printf("%-28s %10zu %14u %12s\n", bat.name().c_str(),
                bat.gate_delay_model(), 0u, "n lg^2 n");
  }
  {
    auto half = full.truncated(24);
    sw::ComparatorSwitch tb(half, 192, n, "truncated-batcher");
    core::WorstCase wc = core::worst_epsilon_search(tb, 25, 120, rng);
    std::printf("%-28s %10zu %14zu %12s\n", tb.name().c_str(), tb.gate_delay_model(),
                wc.epsilon, "n lg^2 n");
  }
}

void BM_BatcherApply(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto net = pcs::sortnet::ComparatorNetwork::odd_even_mergesort(n);
  pcs::Rng rng(11002);
  pcs::BitVec in = rng.bernoulli_bits(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.apply(in));
  }
}
BENCHMARK(BM_BatcherApply)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
