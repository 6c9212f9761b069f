// Ablations of the design choices (experiment D7 and Section 6's "tradeoff
// continuum"):
//   (a) the beta sweep of the Columnsort switch -- pins, chips, load ratio,
//       delay, and volume as beta moves through [1/2, 1];
//   (b) hardwired vs programmable barrel shifters on the Revsort stage-2
//       boards (what hardwiring the rev(i) control bits buys);
//   (c) m/n sweep: how the advertised load ratio depends on how many output
//       wires the designer keeps.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "cost/resource_model.hpp"
#include "hyper/barrel_shifter.hpp"
#include "switch/make_switch.hpp"
#include "util/mathutil.hpp"

namespace {

void print_artifacts() {
  using namespace pcs;
  const std::size_t n = 1 << 16;
  const std::size_t m = n / 2;

  pcs::bench::artifact_header("D7a", "Columnsort beta continuum (n = 2^16)");
  std::printf("%8s %8s %8s %10s %10s %10s %10s %14s\n", "beta", "r", "s", "pins",
              "chips", "alpha", "delay", "volume");
  for (double beta : {0.5, 0.5625, 0.625, 0.6875, 0.75, 0.8125, 0.875, 1.0}) {
    // The r x s shape the beta picks, read off the compiled plan.
    const plan::SwitchPlan p = make_switch_plan({"columnsort", n, m, beta});
    cost::ResourceReport r = cost::columnsort_report(p.fp_r, p.fp_s, m);
    const double realized = std::log2(static_cast<double>(p.fp_r)) /
                            std::log2(static_cast<double>(n));
    std::printf("%8.4f %8zu %8zu %10zu %10zu %10.4f %10zu %14zu\n", realized,
                p.fp_r, p.fp_s, r.pins_per_chip, r.chip_count, r.load_ratio,
                r.gate_delays, r.volume_3d);
  }
  std::printf("(Table 1's continuum: pins/delay/volume rise with beta, chips fall,"
              " load ratio improves)\n");

  pcs::bench::artifact_header("D7b", "hardwired vs programmable barrel shifter");
  std::printf("%8s %22s %22s\n", "width", "hardwired depth/gates",
              "programmable depth/gates");
  for (std::size_t w : {16u, 64u, 256u}) {
    hyper::HardwiredBarrelShifter hard(w, w / 3);
    hyper::ProgrammableBarrelShifter prog(w);
    std::printf("%8zu %10u / %-10zu %10u / %-10zu\n", w, hard.data_path_depth(),
                hard.circuit().gate_count(), prog.data_path_depth(),
                prog.circuit().gate_count());
  }
  std::printf("(hardwiring rev(i) after fabrication removes 2 lg n data-path "
              "delays per shifter\n and all its gates -- the Figure 4 design "
              "decision)\n");

  pcs::bench::artifact_header("D7c", "load ratio vs kept outputs m (n = 2^16)");
  std::printf("%10s %16s %16s %18s\n", "m/n", "revsort alpha", "colsort b=3/4",
              "colsort b=5/8");
  const plan::SwitchPlan c34 = make_switch_plan({"columnsort", n, m, 0.75});
  const plan::SwitchPlan c58 = make_switch_plan({"columnsort", n, m, 0.625});
  for (double frac : {0.125, 0.25, 0.5, 0.75, 1.0}) {
    auto mm = static_cast<std::size_t>(frac * n);
    cost::ResourceReport rr = cost::revsort_report(n, mm);
    cost::ResourceReport r34 = cost::columnsort_report(c34.fp_r, c34.fp_s, mm);
    cost::ResourceReport r58 = cost::columnsort_report(c58.fp_r, c58.fp_s, mm);
    std::printf("%10.3f %16.4f %16.4f %18.4f\n", frac, rr.load_ratio, r34.load_ratio,
                r58.load_ratio);
  }
  std::printf("(keeping more outputs dilutes epsilon: alpha = 1 - eps/m)\n");
}

void BM_FromBeta(benchmark::State& state) {
  for (auto _ : state) {
    const pcs::plan::SwitchPlan p =
        pcs::make_switch_plan({"columnsort", 1 << 16, 1 << 15, 0.75});
    benchmark::DoNotOptimize(p.fp_r);
  }
}
BENCHMARK(BM_FromBeta);

void BM_ProgrammableShifterBuild(benchmark::State& state) {
  for (auto _ : state) {
    pcs::hyper::ProgrammableBarrelShifter sh(256);
    benchmark::DoNotOptimize(sh.data_path_depth());
  }
}
BENCHMARK(BM_ProgrammableShifterBuild);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
