#include "network/multistage.hpp"

#include <gtest/gtest.h>

#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::net {
namespace {

TEST(Multistage, ThreeLevelShapes) {
  // 512 sources -> 32 switches (16->8) -> 16 switches (16->8) -> 2 (64->32).
  MultistageNetwork net(512,
                        {MultistageNetwork::LevelSpec{16, 8},
                         MultistageNetwork::LevelSpec{16, 8},
                         MultistageNetwork::LevelSpec{64, 32}},
                        hyper_factory());
  EXPECT_EQ(net.levels(), 3u);
  EXPECT_EQ(net.switches_at(0), 32u);
  EXPECT_EQ(net.switches_at(1), 16u);
  EXPECT_EQ(net.switches_at(2), 2u);
  EXPECT_EQ(net.total_switches(), 50u);
  EXPECT_EQ(net.trunk_width(), 64u);
  EXPECT_EQ(net.guaranteed_end_to_end_capacity(), 8u);
}

TEST(Multistage, ShapeValidation) {
  // fan_in must divide the level width.
  EXPECT_THROW(MultistageNetwork(10, {MultistageNetwork::LevelSpec{4, 2}},
                                 hyper_factory()),
               pcs::ContractViolation);
  EXPECT_THROW(MultistageNetwork(16, {MultistageNetwork::LevelSpec{4, 5}},
                                 hyper_factory()),
               pcs::ContractViolation);
  EXPECT_THROW(MultistageNetwork(16, {}, hyper_factory()), pcs::ContractViolation);
}

TEST(Multistage, RouteOnceConservation) {
  MultistageNetwork net(256,
                        {MultistageNetwork::LevelSpec{16, 8},
                         MultistageNetwork::LevelSpec{32, 16}},
                        hyper_factory());
  Rng rng(300);
  for (int t = 0; t < 25; ++t) {
    BitVec valid = rng.bernoulli_bits(256, rng.uniform01());
    auto shot = net.route_once(valid);
    EXPECT_EQ(shot.offered, valid.count());
    ASSERT_EQ(shot.survivors.size(), 2u);
    EXPECT_LE(shot.survivors[1], shot.survivors[0]);
    EXPECT_LE(shot.survivors[0], shot.offered);
    // trunk map is an injection into [0, trunk_width).
    std::vector<bool> used(net.trunk_width(), false);
    std::size_t mapped = 0;
    for (std::size_t i = 0; i < 256; ++i) {
      std::int32_t out = shot.trunk_output_of_source[i];
      if (out < 0) continue;
      EXPECT_TRUE(valid.get(i));
      ASSERT_LT(static_cast<std::size_t>(out), used.size());
      EXPECT_FALSE(used[static_cast<std::size_t>(out)]);
      used[static_cast<std::size_t>(out)] = true;
      ++mapped;
    }
    EXPECT_EQ(mapped, shot.survivors.back());
  }
}

TEST(Multistage, PerfectSwitchExactCounts) {
  // With single-chip "hyper" nodes the per-level survivor counts are exactly
  // sum over nodes of min(k_node, fan_out).
  MultistageNetwork net(64, {MultistageNetwork::LevelSpec{16, 4}}, hyper_factory());
  Rng rng(301);
  BitVec valid = rng.bernoulli_bits(64, 0.5);
  auto shot = net.route_once(valid);
  std::size_t expected = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < 16; ++i) k += valid.get(g * 16 + i);
    expected += std::min<std::size_t>(k, 4);
  }
  EXPECT_EQ(shot.survivors[0], expected);
}

TEST(Multistage, GuaranteedCapacityIsLossless) {
  // Any placement of up to the end-to-end capacity must reach the trunk:
  // a single 64->16 Revsort level (capacity 64 - 40 = 24... use hyper).
  MultistageNetwork net(256,
                        {MultistageNetwork::LevelSpec{64, 32},
                         MultistageNetwork::LevelSpec{128, 64}},
                        hyper_factory());
  const std::size_t cap = net.guaranteed_end_to_end_capacity();
  ASSERT_GT(cap, 0u);
  Rng rng(302);
  for (int t = 0; t < 20; ++t) {
    BitVec valid = rng.exact_weight_bits(256, cap);
    auto shot = net.route_once(valid);
    EXPECT_EQ(shot.survivors.back(), cap) << "t=" << t;
  }
}

TEST(Multistage, MixedFactoryBuildsRevsortWhereItFits) {
  MultistageNetwork net(256,
                        {MultistageNetwork::LevelSpec{64, 16},   // 64 = 8^2: revsort
                         MultistageNetwork::LevelSpec{64, 32}},  // revsort again
                        revsort_or_hyper_factory());
  EXPECT_NE(net.switch_at(0, 0).name().find("revsort"), std::string::npos);
  // A non-square level falls back to the hyper switch.
  MultistageNetwork net2(96, {MultistageNetwork::LevelSpec{24, 12}},
                         revsort_or_hyper_factory());
  EXPECT_NE(net2.switch_at(0, 0).name().find("hyperconcentrator"),
            std::string::npos);
}

TEST(Multistage, FactoryMismatchRejected) {
  SwitchFactory bad = [](std::size_t, std::size_t) {
    return pcs::make_switch({"hyper", 8, 4});  // wrong width
  };
  EXPECT_THROW(MultistageNetwork(64, {MultistageNetwork::LevelSpec{16, 8}}, bad),
               pcs::ContractViolation);
}


TEST(Multistage, SimulateLightLoad) {
  MultistageNetwork net(128,
                        {MultistageNetwork::LevelSpec{16, 8},
                         MultistageNetwork::LevelSpec{16, 8}},
                        hyper_factory());
  Rng rng(303);
  auto stats = net.simulate(0.05, 200, rng);
  EXPECT_GT(stats.offered, 200u);
  EXPECT_GT(stats.delivery_rate(), 0.97);
  ASSERT_EQ(stats.cut_at_level.size(), 2u);
}

TEST(Multistage, SimulateSaturationCutsAccounted) {
  MultistageNetwork net(128,
                        {MultistageNetwork::LevelSpec{16, 4},
                         MultistageNetwork::LevelSpec{32, 8}},
                        hyper_factory());
  Rng rng(304);
  auto stats = net.simulate(0.9, 150, rng);
  // Trunk width 8: at most 8 deliveries per round.
  EXPECT_LE(stats.delivered, 150u * 8u);
  EXPECT_GT(stats.max_backlog, 32u);
  // Cuts happen somewhere when saturated.
  EXPECT_GT(stats.cut_at_level[0] + stats.cut_at_level[1], 0u);
}

}  // namespace
}  // namespace pcs::net
