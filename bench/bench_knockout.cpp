// Application bench: concentrators in their natural habitat, the knockout
// packet switch.  Per-output N-to-L concentrators accept up to L of N
// simultaneous packets; the binomial tail makes loss fall steeply in L.
// We compare per-port implementations: perfect single-chip, the paper's
// Revsort multichip switch, and the prefix+butterfly foil -- measured loss
// against the analytic prediction.
#include <cstdio>

#include "bench_common.hpp"
#include "network/knockout.hpp"
#include "switch/make_switch.hpp"
#include "util/rng.hpp"

namespace {

using Factory = std::function<std::unique_ptr<pcs::sw::ConcentratorSwitch>(
    std::size_t, std::size_t)>;

Factory hyper_ports() {
  return [](std::size_t n, std::size_t m) {
    return pcs::make_switch({"hyper", n, m});
  };
}

Factory revsort_ports() {
  return [](std::size_t n, std::size_t m) {
    return pcs::make_switch({"revsort", n, m});
  };
}

void print_artifacts() {
  using pcs::net::KnockoutSwitch;
  pcs::bench::artifact_header(
      "knockout", "loss rate vs accept lines L (N = 64, uniform load 0.9)");
  std::printf("%6s %16s %16s %16s\n", "L", "predicted", "hyper ports",
              "revsort ports");
  for (std::size_t accept : {2u, 4u, 8u, 16u, 32u}) {
    double predicted = KnockoutSwitch::predicted_loss(64, accept, 0.9);
    pcs::Rng ra(13001), rb(13001);
    KnockoutSwitch perfect(64, accept, hyper_ports());
    KnockoutSwitch partial(64, accept, revsort_ports());
    auto sp = perfect.simulate_uniform(0.9, 800, ra);
    auto sq = partial.simulate_uniform(0.9, 800, rb);
    std::printf("%6zu %16.6f %16.6f %16.6f\n", accept, predicted, sp.loss_rate(),
                sq.loss_rate());
  }
  std::printf(
      "(the knockout principle: loss collapses as L grows; the multichip\n"
      " partial concentrator tracks the perfect ports -- its epsilon only\n"
      " bites when more than m - eps packets collide, which the binomial\n"
      " tail already made rare.)\n");

  pcs::bench::artifact_header("knockout", "loss vs offered load (N = 64, L = 8)");
  std::printf("%8s %16s %16s\n", "load", "predicted", "measured (hyper)");
  for (double load : {0.3, 0.6, 0.9, 1.0}) {
    pcs::Rng rng(13002);
    KnockoutSwitch sw(64, 8, hyper_ports());
    auto stats = sw.simulate_uniform(load, 800, rng);
    std::printf("%8.2f %16.8f %16.8f\n", load,
                KnockoutSwitch::predicted_loss(64, 8, load), stats.loss_rate());
  }
}

void BM_KnockoutSlot(benchmark::State& state) {
  pcs::net::KnockoutSwitch sw(64, 8, hyper_ports());
  pcs::Rng rng(13003);
  std::vector<std::int32_t> dests(64);
  for (auto& d : dests) {
    d = rng.chance(0.9) ? static_cast<std::int32_t>(rng.below(64)) : -1;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.route_slot(dests));
  }
}
BENCHMARK(BM_KnockoutSlot);

}  // namespace

PCS_BENCH_MAIN(print_artifacts)
