#include "network/concentrator_tree.hpp"

#include <gtest/gtest.h>

#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::net {
namespace {

TEST(ConcentratorTree, ShapesAndAccessors) {
  // 4 groups of 64 channels -> 16 wires each -> trunk 64 -> 32.
  ConcentratorTree tree = make_revsort_tree(4, 64, 16, 32);
  EXPECT_EQ(tree.groups(), 4u);
  EXPECT_EQ(tree.inputs_per_group(), 64u);
  EXPECT_EQ(tree.total_inputs(), 256u);
  EXPECT_EQ(tree.trunk_outputs(), 32u);
  EXPECT_EQ(tree.level1(0).inputs(), 64u);
  EXPECT_EQ(tree.level2().inputs(), 64u);
}

TEST(ConcentratorTree, HyperTreeRoutesExactly) {
  ConcentratorTree tree = make_hyper_tree(4, 16, 8, 16);
  Rng rng(220);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec valid = rng.bernoulli_bits(64, rng.uniform01());
    auto shot = tree.route_once(valid);
    EXPECT_EQ(shot.offered, valid.count());
    // With perfect switches: each group passes min(k_g, 8); the trunk
    // passes min(survivors, 16).
    std::size_t expected_l1 = 0;
    for (std::size_t g = 0; g < 4; ++g) {
      std::size_t kg = 0;
      for (std::size_t i = 0; i < 16; ++i) kg += valid.get(g * 16 + i);
      expected_l1 += std::min<std::size_t>(kg, 8);
    }
    EXPECT_EQ(shot.survived_level1, expected_l1);
    EXPECT_EQ(shot.reached_trunk, std::min<std::size_t>(expected_l1, 16));
  }
}

TEST(ConcentratorTree, TrunkMappingIsInjective) {
  ConcentratorTree tree = make_revsort_tree(4, 64, 16, 32);
  Rng rng(221);
  BitVec valid = rng.bernoulli_bits(256, 0.5);
  auto shot = tree.route_once(valid);
  std::vector<bool> used(tree.trunk_outputs(), false);
  std::size_t mapped = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    std::int32_t out = shot.trunk_output_of_source[i];
    if (out < 0) continue;
    EXPECT_TRUE(valid.get(i)) << "idle source reached trunk";
    EXPECT_FALSE(used[static_cast<std::size_t>(out)]);
    used[static_cast<std::size_t>(out)] = true;
    ++mapped;
  }
  EXPECT_EQ(mapped, shot.reached_trunk);
}

TEST(ConcentratorTree, ColumnsortTreeBuilds) {
  // Level 1: r=16, s=4 (n=64 each), m=16; trunk: 4*16=64 inputs, r2=16.
  ConcentratorTree tree = make_columnsort_tree(4, 16, 4, 16, 32);
  EXPECT_EQ(tree.total_inputs(), 256u);
  Rng rng(222);
  BitVec valid = rng.bernoulli_bits(256, 0.3);
  auto shot = tree.route_once(valid);
  EXPECT_LE(shot.reached_trunk, shot.survived_level1);
  EXPECT_LE(shot.survived_level1, shot.offered);
}

TEST(ConcentratorTree, WidthMismatchRejected) {
  std::vector<std::unique_ptr<pcs::sw::ConcentratorSwitch>> level1;
  level1.push_back(pcs::make_switch({"hyper", 16, 8}));
  auto trunk = pcs::make_switch({"hyper", 10, 5});  // wrong width
  EXPECT_THROW(ConcentratorTree(std::move(level1), std::move(trunk)),
               pcs::ContractViolation);
}

TEST(ConcentratorTree, LightLoadAllReachTrunk) {
  // Trunk inputs = groups * m = 64, a valid Revsort size (side 8).
  ConcentratorTree tree = make_revsort_tree(4, 64, 16, 32);
  Rng rng(223);
  BitVec valid = rng.exact_weight_bits(256, 8);
  auto shot = tree.route_once(valid);
  // With only 8 messages across 4 groups, losses are unlikely but not
  // contractually impossible; assert the conservation laws instead.
  EXPECT_LE(shot.reached_trunk, 8u);
  EXPECT_EQ(shot.offered, 8u);
}

}  // namespace
}  // namespace pcs::net
