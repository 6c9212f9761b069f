// Reproduces Figures 6, 7, and 8 (experiments F6, F7, F8): the 2D layout and
// 3D packaging of the Columnsort-based switch, including the s^2 interstack
// wire transposers of Figure 8 (w wires turned vertical-to-horizontal in
// Theta(w^2) volume).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "cost/layout.hpp"
#include "cost/render.hpp"
#include "switch/make_switch.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace {

void print_artifacts() {
  using namespace pcs::cost;
  pcs::bench::artifact_header("Figure 6", "Columnsort switch 2D layout");
  std::printf("%10s %6s %6s %14s %14s %14s\n", "n", "r", "s", "width x height",
              "wiring area", "chip area");
  for (auto [r, s] : {std::pair<std::size_t, std::size_t>{8, 4},
                      std::pair<std::size_t, std::size_t>{64, 16},
                      std::pair<std::size_t, std::size_t>{256, 16},
                      std::pair<std::size_t, std::size_t>{1024, 64}}) {
    Floorplan2D plan = columnsort_floorplan(r, s);
    std::printf("%10zu %6zu %6zu %7zu x %-6zu %14zu %14zu\n", r * s, r, s, plan.width,
                plan.height, plan.wiring_area(), plan.chip_area());
  }

  pcs::bench::artifact_header("Figure 6 drawing", "8x4 floorplan");
  std::fputs(render_floorplan(columnsort_floorplan(8, 4), 2).c_str(), stdout);

  pcs::bench::artifact_header("Figure 7", "Columnsort switch 3D packaging");
  std::printf("%10s %6s %6s %12s %12s %12s %14s %12s\n", "n", "r", "s", "stack vol",
              "connectors", "conn vol", "total vol", "vol/n^(1+b)");
  for (auto [r, s] : {std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{256, 16},
                      std::pair<std::size_t, std::size_t>{512, 8},
                      std::pair<std::size_t, std::size_t>{4096, 16}}) {
    const std::size_t n = r * s;
    Packaging3D p = columnsort_packaging(r, s);
    double beta = std::log2(static_cast<double>(r)) / std::log2(static_cast<double>(n));
    double norm = static_cast<double>(p.total_volume()) /
                  (static_cast<double>(n) * static_cast<double>(r));
    std::printf("%10zu %6zu %6zu %12zu %12zu %12zu %14zu %9.3f (b=%.2f)\n", n, r, s,
                p.stack_volume(), p.connector_count, p.connector_volume(),
                p.total_volume(), norm, beta);
  }
  std::printf("(vol / (n * r) -> 2: volume = 2 n^{1+beta} + o())\n");

  pcs::bench::artifact_header(
      "Figure 6 scenario", "8x4 mesh, m = 18, k = 14 valid messages (the figure's)");
  {
    const auto sw =
        pcs::make_switch({.family = "columnsort", .m = 18, .r = 8, .s = 4});
    pcs::Rng rng(2027);
    std::size_t min_routed = 32, trials = 200;
    for (std::size_t t = 0; t < trials; ++t) {
      pcs::BitVec valid = rng.exact_weight_bits(32, 14);
      min_routed = std::min(min_routed, sw->route(valid).routed_count());
    }
    std::printf("  guaranteed capacity m - (s-1)^2 = %zu; min routed over %zu\n"
                "  random placements of 14 messages: %zu (the figure's scenario\n"
                "  routes all 14)\n",
                sw->guaranteed_capacity(), trials, min_routed);
  }

  pcs::bench::artifact_header("Figure 7 drawing", "r = 16, s = 4 stacks");
  std::fputs(render_packaging(columnsort_packaging(16, 4)).c_str(), stdout);

  pcs::bench::artifact_header("Figure 8", "wire transposer volume, w wires");
  std::printf("%8s %12s\n", "w", "volume");
  for (std::size_t w : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
    std::printf("%8zu %12zu\n", w, wire_transposer_volume(w));
  }
  std::printf("(Theta(w^2), as in the figure's w = 4 example)\n");
}

void BM_ColumnsortPackaging(benchmark::State& state) {
  const std::size_t r = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto p = pcs::cost::columnsort_packaging(r, 16);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_ColumnsortPackaging)->Arg(256)->Arg(4096);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
