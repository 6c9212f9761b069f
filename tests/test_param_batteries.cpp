// Parameterized property batteries: TEST_P sweeps over design families and
// workload grids, complementing the targeted unit tests.
#include <gtest/gtest.h>

#include <memory>

#include "message/ack_protocol.hpp"
#include "network/knockout.hpp"
#include "switch/columnsort_switch.hpp"
#include "switch/hyper_switch.hpp"
#include "switch/revsort_switch.hpp"
#include "util/rng.hpp"

namespace pcs::sw {
namespace {

// ---- battery 1: every (design, m-fraction) cell honors the contract -----

enum class Design { kHyper, kRevsort, kColumnsort, kPrefixButterfly };

struct ContractCase {
  Design design;
  double m_fraction;
};

// The test name suffix ctest shows, e.g. "revsort_m0.75": stable across
// builds, unlike gtest's default dump of the struct (padding bytes
// included).
void PrintTo(const ContractCase& c, std::ostream* os) {
  switch (c.design) {
    case Design::kHyper: *os << "hyper"; break;
    case Design::kRevsort: *os << "revsort"; break;
    case Design::kColumnsort: *os << "columnsort"; break;
    case Design::kPrefixButterfly: *os << "prefix_butterfly"; break;
  }
  *os << "_m" << c.m_fraction;
}

std::unique_ptr<ConcentratorSwitch> build(Design d, std::size_t n, std::size_t m) {
  switch (d) {
    case Design::kHyper:
      return std::make_unique<HyperSwitch>(n, m);
    case Design::kRevsort:
      return std::make_unique<RevsortSwitch>(n, m);
    case Design::kColumnsort:
      return std::make_unique<ColumnsortSwitch>(n / 4, 4, m);
    case Design::kPrefixButterfly:
      return std::make_unique<PrefixButterflyHyperSwitch>(n, m);
  }
  return nullptr;
}

class ContractBattery : public ::testing::TestWithParam<ContractCase> {};

TEST_P(ContractBattery, ContractAcrossTheLoadRange) {
  const auto [design, frac] = GetParam();
  const std::size_t n = 256;
  const auto m = static_cast<std::size_t>(frac * n);
  auto sw = build(design, n, m);
  Rng rng(400 + static_cast<int>(design) * 10 + static_cast<int>(frac * 8));
  for (std::size_t k = 0; k <= n; k += 17) {
    BitVec valid = rng.exact_weight_bits(n, k);
    SwitchRouting r = sw->route(valid);
    ASSERT_TRUE(r.is_partial_injection()) << sw->name() << " k=" << k;
    ASSERT_TRUE(concentration_contract_holds(*sw, valid, r))
        << sw->name() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ContractBattery,
    ::testing::Values(ContractCase{Design::kHyper, 0.25},
                      ContractCase{Design::kHyper, 0.75},
                      ContractCase{Design::kRevsort, 0.25},
                      ContractCase{Design::kRevsort, 0.75},
                      ContractCase{Design::kRevsort, 1.0},
                      ContractCase{Design::kColumnsort, 0.25},
                      ContractCase{Design::kColumnsort, 0.75},
                      ContractCase{Design::kColumnsort, 1.0},
                      ContractCase{Design::kPrefixButterfly, 0.5}));

// ---- battery 2: knockout loss monotone in L across shapes ----------------

class KnockoutBattery
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(KnockoutBattery, LossMonotoneInAcceptLines) {
  const auto [ports, load] = GetParam();
  auto factory = [](std::size_t n, std::size_t m) {
    return std::make_unique<HyperSwitch>(n, m);
  };
  double prev = 1.0;
  for (std::size_t accept : {1u, 2u, 4u, 8u}) {
    pcs::net::KnockoutSwitch sw(ports, accept, factory);
    Rng rng(410);
    auto stats = sw.simulate_uniform(load, 250, rng);
    EXPECT_LE(stats.loss_rate(), prev + 0.02)
        << "ports=" << ports << " load=" << load << " L=" << accept;
    prev = stats.loss_rate();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KnockoutBattery,
    ::testing::Values(std::pair<std::size_t, double>{16, 0.5},
                      std::pair<std::size_t, double>{16, 1.0},
                      std::pair<std::size_t, double>{64, 0.7},
                      std::pair<std::size_t, double>{32, 0.9}));

// ---- battery 3: ack protocol goodput 1.0 whenever capacity exceeds load --

class AckBattery : public ::testing::TestWithParam<double> {};

TEST_P(AckBattery, UnderProvisionedLoadAlwaysCompletes) {
  const double arrival = GetParam();
  HyperSwitch sw(128, 64);  // capacity 64/round >> arrivals
  Rng rng(420);
  pcs::msg::AckConfig cfg;
  cfg.max_retries = 20;
  auto stats = pcs::msg::simulate_ack_protocol(sw, arrival, 250, cfg, rng);
  EXPECT_EQ(stats.gave_up, 0u) << "arrival " << arrival;
  EXPECT_DOUBLE_EQ(stats.goodput(), 1.0) << "arrival " << arrival;
}

INSTANTIATE_TEST_SUITE_P(Loads, AckBattery, ::testing::Values(0.05, 0.15, 0.3));

}  // namespace
}  // namespace pcs::sw
