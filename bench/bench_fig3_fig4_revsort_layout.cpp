// Reproduces Figures 3 and 4 (experiments F3, F4): the 2D layout and 3D
// packaging of the Revsort-based switch.
//
// Figure 3: three columns of sqrt(n) hyperconcentrator chips joined by two
// full n-wire crossbars; area Theta(n^2), wiring-dominated.
// Figure 4: three stacks of sqrt(n) boards (stack 2 boards carry
// hyperconcentrator + hardwired barrel shifter); volume Theta(n^{3/2}).
#include <cstdio>

#include <algorithm>

#include "bench_common.hpp"
#include "cost/layout.hpp"
#include "cost/render.hpp"
#include "cost/resource_model.hpp"
#include "switch/make_switch.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace {

void print_artifacts() {
  using namespace pcs::cost;
  pcs::bench::artifact_header("Figure 3", "Revsort switch 2D layout");
  std::printf("%10s %10s %12s %14s %14s %12s\n", "n", "side", "width x height",
              "wiring area", "chip area", "area/n^2");
  for (std::size_t side : {8u, 16u, 32u, 64u, 128u, 256u}) {
    const std::size_t n = side * side;
    Floorplan2D plan = revsort_floorplan(side);
    std::printf("%10zu %10zu %6zu x %-6zu %14zu %14zu %12.3f\n", n, side, plan.width,
                plan.height, plan.wiring_area(), plan.chip_area(),
                static_cast<double>(plan.area()) /
                    (static_cast<double>(n) * static_cast<double>(n)));
  }
  std::printf("(area/n^2 approaches 2: the two crossbars dominate -- Theta(n^2))\n");

  pcs::bench::artifact_header("Figure 3 drawing", "side = 8 floorplan");
  std::fputs(render_floorplan(revsort_floorplan(8), 4).c_str(), stdout);

  pcs::bench::artifact_header("Figure 4", "Revsort switch 3D packaging");
  std::printf("%10s %8s %22s %14s %14s\n", "n", "boards", "stack volumes", "total",
              "vol/n^1.5");
  for (std::size_t side : {8u, 16u, 32u, 64u, 128u, 256u}) {
    const std::size_t n = side * side;
    Packaging3D p = revsort_packaging(side);
    std::printf("%10zu %8zu %6zu+%6zu+%6zu %14zu %14.3f\n", n, 3 * side,
                p.stacks[0].volume(), p.stacks[1].volume(), p.stacks[2].volume(),
                p.total_volume(),
                static_cast<double>(p.total_volume()) /
                    (static_cast<double>(n) * pcs::isqrt(n)));
  }
  std::printf("(vol/n^1.5 = 4 exactly: volume = 4 n^{3/2})\n");

  pcs::bench::artifact_header(
      "Figure 3 scenario", "n = 64, m = 28, k = 24 valid messages (the figure's)");
  {
    const auto sw = pcs::make_switch({"revsort", 64, 28});
    pcs::Rng rng(2026);
    std::size_t min_routed = 64, trials = 200;
    for (std::size_t t = 0; t < trials; ++t) {
      pcs::BitVec valid = rng.exact_weight_bits(64, 24);
      min_routed = std::min(min_routed, sw->route(valid).routed_count());
    }
    std::printf("  routed 24/24 in every one of %zu random placements: %s "
                "(min %zu)\n",
                trials, min_routed == 24 ? "yes" : "no", min_routed);
    std::printf("  (the figure shows all 24 paths established; the worst-case\n"
                "   bound alpha*m is pessimistic -- see D4b for the typical "
                "epsilon)\n");
  }

  pcs::bench::artifact_header("Figure 4 detail", "stage-2 board (n = 4096)");
  Packaging3D p = revsort_packaging(64);
  for (const Stack& s : p.stacks) {
    std::printf("  %-32s %zu boards of %zu x %zu\n", s.label.c_str(), s.boards,
                s.board_width, s.board_height);
  }
  ResourceReport r = revsort_report(4096, 2048);
  std::printf("  shifter control pins hardwired per board: %zu (rev(i))\n",
              r.pins_per_chip - 2 * 64);

  pcs::bench::artifact_header("Figure 4 drawing", "side = 16 stacks");
  std::fputs(render_packaging(revsort_packaging(16)).c_str(), stdout);
}

void BM_RevsortFloorplan(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto plan = pcs::cost::revsort_floorplan(side);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_RevsortFloorplan)->Arg(64)->Arg(256);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
