#include "network/concentrator_tree.hpp"

#include "switch/make_switch.hpp"
#include "util/assert.hpp"

namespace pcs::net {

ConcentratorTree::ConcentratorTree(
    std::vector<std::unique_ptr<pcs::sw::ConcentratorSwitch>> level1,
    std::unique_ptr<pcs::sw::ConcentratorSwitch> level2)
    : level1_(std::move(level1)), level2_(std::move(level2)) {
  PCS_REQUIRE(!level1_.empty(), "ConcentratorTree needs level-1 switches");
  PCS_REQUIRE(level2_ != nullptr, "ConcentratorTree needs a trunk switch");
  const std::size_t n = level1_[0]->inputs();
  const std::size_t m = level1_[0]->outputs();
  for (const auto& sw : level1_) {
    PCS_REQUIRE(sw->inputs() == n && sw->outputs() == m,
                "ConcentratorTree level-1 switches must be uniform");
  }
  PCS_REQUIRE(level2_->inputs() == level1_.size() * m,
              "ConcentratorTree trunk width mismatch");
}

std::size_t ConcentratorTree::inputs_per_group() const {
  return level1_[0]->inputs();
}

std::size_t ConcentratorTree::total_inputs() const {
  return groups() * inputs_per_group();
}

std::size_t ConcentratorTree::trunk_outputs() const { return level2_->outputs(); }

const pcs::sw::ConcentratorSwitch& ConcentratorTree::level1(std::size_t g) const {
  PCS_REQUIRE(g < level1_.size(), "ConcentratorTree::level1 index");
  return *level1_[g];
}

ConcentratorTree::ShotResult ConcentratorTree::route_once(const BitVec& valid) const {
  PCS_REQUIRE(valid.size() == total_inputs(), "ConcentratorTree::route_once width");
  const std::size_t n = inputs_per_group();
  const std::size_t m = level1_[0]->outputs();

  ShotResult result;
  result.trunk_output_of_source.assign(total_inputs(), -1);
  result.offered = valid.count();

  // Level 1: each group's switch routes its block; level-2 input wire
  // g * m + j carries group g's output j.
  std::vector<std::int32_t> level2_source(groups() * m, -1);
  BitVec level2_valid(groups() * m);
  for (std::size_t g = 0; g < groups(); ++g) {
    BitVec group_valid(n);
    for (std::size_t i = 0; i < n; ++i) group_valid.set(i, valid.get(g * n + i));
    pcs::sw::SwitchRouting r = level1_[g]->route(group_valid);
    for (std::size_t j = 0; j < m; ++j) {
      std::int32_t src = r.input_of_output[j];
      if (src >= 0) {
        level2_source[g * m + j] = static_cast<std::int32_t>(g * n) + src;
        level2_valid.set(g * m + j, true);
        ++result.survived_level1;
      }
    }
  }

  // Level 2: the trunk switch.
  pcs::sw::SwitchRouting trunk = level2_->route(level2_valid);
  for (std::size_t j = 0; j < level2_->outputs(); ++j) {
    std::int32_t wire = trunk.input_of_output[j];
    if (wire < 0) continue;
    std::int32_t src = level2_source[static_cast<std::size_t>(wire)];
    PCS_REQUIRE(src >= 0, "trunk routed an idle wire");
    result.trunk_output_of_source[static_cast<std::size_t>(src)] =
        static_cast<std::int32_t>(j);
    ++result.reached_trunk;
  }
  return result;
}

ConcentratorTree make_revsort_tree(std::size_t groups, std::size_t n, std::size_t m,
                                   std::size_t trunk_outputs) {
  std::vector<std::unique_ptr<pcs::sw::ConcentratorSwitch>> level1;
  level1.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    level1.push_back(pcs::make_switch({"revsort", n, m}));
  }
  auto trunk = pcs::make_switch({"revsort", groups * m, trunk_outputs});
  return ConcentratorTree(std::move(level1), std::move(trunk));
}

ConcentratorTree make_columnsort_tree(std::size_t groups, std::size_t r, std::size_t s,
                                      std::size_t m, std::size_t trunk_outputs) {
  std::vector<std::unique_ptr<pcs::sw::ConcentratorSwitch>> level1;
  level1.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    level1.push_back(
        pcs::make_switch({.family = "columnsort", .m = m, .r = r, .s = s}));
  }
  // Trunk shape: keep the same aspect style, r2 rows = trunk inputs / s.
  const std::size_t trunk_n = groups * m;
  PCS_REQUIRE(trunk_n % s == 0, "make_columnsort_tree trunk width not divisible");
  const std::size_t r2 = trunk_n / s;
  auto trunk = pcs::make_switch(
      {.family = "columnsort", .m = trunk_outputs, .r = r2, .s = s});
  return ConcentratorTree(std::move(level1), std::move(trunk));
}

ConcentratorTree make_hyper_tree(std::size_t groups, std::size_t n, std::size_t m,
                                 std::size_t trunk_outputs) {
  std::vector<std::unique_ptr<pcs::sw::ConcentratorSwitch>> level1;
  level1.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    level1.push_back(pcs::make_switch({"hyper", n, m}));
  }
  auto trunk = pcs::make_switch({"hyper", groups * m, trunk_outputs});
  return ConcentratorTree(std::move(level1), std::move(trunk));
}

}  // namespace pcs::net
