// Reproduces the nearsorting bounds behind Theorems 3 and 4
// (experiments D2, D3):
//   D2 -- after Revsort Algorithm 1 a sqrt(n) x sqrt(n) mesh has at most
//         2*ceil(n^{1/4}) - 1 dirty rows, so the switch is an
//         O(n^{3/4})-nearsorter;
//   D3 -- Columnsort Algorithm 2 is an (s-1)^2-nearsorter;
// plus Section 6's "at most eight dirty rows" claim for repeated Revsort.
//
// Worst observed values over random + adversarial inputs are printed next
// to the bounds.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/adversary.hpp"
#include "sortnet/columnsort.hpp"
#include "sortnet/nearsort.hpp"
#include "sortnet/revsort.hpp"
#include "switch/columnsort_switch.hpp"
#include "switch/revsort_switch.hpp"
#include "util/rng.hpp"

namespace {

void print_artifacts() {
  using namespace pcs;
  Rng rng(3001);

  pcs::bench::artifact_header("D2 (Thm 3)", "Revsort Algorithm 1 dirty rows");
  std::printf("%10s %8s %14s %14s %16s %16s\n", "n", "side", "bound (rows)",
              "worst rows", "bound eps", "worst eps");
  for (std::size_t side : {8u, 16u, 32u, 64u, 128u}) {
    const std::size_t n = side * side;
    std::size_t bound = sortnet::algorithm1_dirty_row_bound(side);
    std::size_t worst_rows = 0;
    for (int t = 0; t < 200; ++t) {
      BitMatrix m = BitMatrix::from_row_major(
          rng.bernoulli_bits(n, rng.uniform01()), side, side);
      sortnet::revsort_algorithm1(m);
      worst_rows = std::max(worst_rows, m.dirty_row_count());
    }
    sw::RevsortSwitch swr(n, n);
    core::WorstCase wc = core::worst_epsilon_search(swr, 25, 120, rng);
    std::printf("%10zu %8zu %14zu %14zu %16zu %16zu\n", n, side, bound, worst_rows,
                swr.epsilon_bound(), wc.epsilon);
  }

  pcs::bench::artifact_header("D3 (Thm 4)", "Columnsort Algorithm 2 epsilon");
  std::printf("%10s %6s %6s %14s %14s\n", "n", "r", "s", "bound (s-1)^2",
              "worst eps");
  for (auto [r, s] : {std::pair<std::size_t, std::size_t>{16, 4},
                      std::pair<std::size_t, std::size_t>{64, 8},
                      std::pair<std::size_t, std::size_t>{128, 8},
                      std::pair<std::size_t, std::size_t>{256, 16},
                      std::pair<std::size_t, std::size_t>{64, 16}}) {
    const std::size_t n = r * s;
    sw::ColumnsortSwitch swc(r, s, n);
    core::WorstCase wc = core::worst_epsilon_search(swc, 25, 120, rng);
    std::printf("%10zu %6zu %6zu %14zu %14zu\n", n, r, s, swc.epsilon_bound(),
                wc.epsilon);
  }

  pcs::bench::artifact_header("D2b (Sec 6)",
                              "repeated Revsort: <= 8 dirty rows");
  std::printf("%10s %8s %8s %14s\n", "n", "side", "reps", "worst rows");
  for (std::size_t side : {16u, 32u, 64u, 128u}) {
    const std::size_t n = side * side;
    std::size_t reps = sortnet::full_revsort_repetitions(side);
    std::size_t worst = 0;
    for (int t = 0; t < 100; ++t) {
      BitMatrix m = BitMatrix::from_row_major(
          rng.bernoulli_bits(n, rng.uniform01()), side, side);
      worst = std::max(worst, sortnet::revsort_repeated(m, reps));
    }
    std::printf("%10zu %8zu %8zu %14zu\n", n, side, reps, worst);
  }
}

void BM_Algorithm1(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  pcs::Rng rng(3002);
  pcs::BitMatrix m = pcs::BitMatrix::from_row_major(
      rng.bernoulli_bits(side * side, 0.5), side, side);
  for (auto _ : state) {
    pcs::BitMatrix copy = m;
    pcs::sortnet::revsort_algorithm1(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Algorithm1)->Arg(32)->Arg(128)->Arg(512);

void BM_Algorithm2(benchmark::State& state) {
  const std::size_t r = static_cast<std::size_t>(state.range(0));
  pcs::Rng rng(3003);
  pcs::BitMatrix m =
      pcs::BitMatrix::from_row_major(rng.bernoulli_bits(r * 16, 0.5), r, 16);
  for (auto _ : state) {
    pcs::BitMatrix copy = m;
    pcs::sortnet::columnsort_algorithm2(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Algorithm2)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
