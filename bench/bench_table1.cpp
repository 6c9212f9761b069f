// Reproduces Table 1 of the paper (experiment T1 in DESIGN.md): resource
// measures for the Revsort-based switch and the Columnsort-based switch at
// beta = 1/2, 5/8, 3/4 -- first the paper's asymptotic table, then concrete
// instantiations at several n so the exponents are visible, then the
// single-chip baseline that motivates the whole exercise.
#include <cstdio>

#include "bench_common.hpp"
#include "cost/resource_model.hpp"
#include "cost/table1.hpp"
#include "util/rng.hpp"

namespace {

void print_artifacts() {
  using namespace pcs::cost;
  pcs::bench::artifact_header("Table 1", "resource measures, paper (asymptotic)");
  std::fputs(render_table1_asymptotic().c_str(), stdout);

  for (std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 16,
                        std::size_t{1} << 20}) {
    std::size_t m = n / 2;
    pcs::bench::artifact_header("Table 1", "concrete instantiation");
    std::fputs(render_table1(n, m).c_str(), stdout);
  }

  pcs::bench::artifact_header(
      "Table 1 context", "single-chip baseline (the pin wall, Section 1)");
  for (std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 16}) {
    ResourceReport r = hyper_chip_report(n, n / 2);
    std::printf("  %s\n", r.to_string().c_str());
  }

  pcs::bench::artifact_header(
      "Table 1 context",
      "naive partitioning of the crossbar chip (Omega((n/p)^2) chips)");
  std::printf("%10s %8s %14s %14s %14s %16s\n", "n", "pins", "chips",
              "chip passes", "delay", "vs revsort chips");
  for (std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 16}) {
    for (std::size_t pins : {512u, 2048u}) {
      ResourceReport part = partitioned_hyper_report(n, pins);
      ResourceReport rev = revsort_report(n, n / 2);
      std::printf("%10zu %8zu %14zu %14zu %14zu %13.1fx\n", n, pins,
                  part.chip_count, part.chip_passes, part.gate_delays,
                  static_cast<double>(part.chip_count) /
                      static_cast<double>(rev.chip_count));
    }
  }
  std::printf("(the paper's motivation: at the same pin budget the partitioned\n"
              " crossbar needs quadratically many chips and pays pad delay at\n"
              " every tile crossing; the partial concentrators need Theta(n/p).)\n");

  pcs::bench::artifact_header(
      "Table 1 context",
      "Section 1's clocked foil: prefix + butterfly (4 pins/chip)");
  for (std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 16}) {
    ResourceReport r = prefix_butterfly_report(n);
    std::printf("  %s\n", r.to_string().c_str());
  }
}

void BM_Table1Generation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto cols = pcs::cost::table1_columns(n, n / 2);
    benchmark::DoNotOptimize(cols);
  }
}
BENCHMARK(BM_Table1Generation)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
