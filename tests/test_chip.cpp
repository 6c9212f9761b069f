// The chip inventory a switch design implies -- hyperconcentrator chips,
// barrel shifters and their pins -- read off the compiled plan's structural
// tallies (plan/switch_plan.hpp).
#include <gtest/gtest.h>

#include "plan/switch_plan.hpp"
#include "switch/make_switch.hpp"

namespace pcs::plan {
namespace {

TEST(Chip, BomTotals) {
  // Revsort at n = 256: 48 16-wide hyperconcentrators and 16 shifters.
  const SwitchPlan p = make_switch_plan({"revsort", 256});
  EXPECT_EQ(p.board_count(), 48u);
  EXPECT_EQ(p.shifter_count(), 16u);
  EXPECT_EQ(p.chip_count(), 64u);
  EXPECT_EQ(p.max_pins_per_chip(), 36u);  // shifter: 32 data + 4 control
}

TEST(Chip, EmptyBom) {
  const SwitchPlan p;
  EXPECT_EQ(p.chip_count(), 0u);
  EXPECT_EQ(p.shifter_count(), 0u);
  EXPECT_EQ(p.max_pins_per_chip(), 0u);
}

TEST(Chip, ToStringListsControlPins) {
  // Revsort at n = 64: the 8-wide shifter stage is named, and its 3
  // hardwired control pins count in the pin bound.
  const std::string s = make_switch_plan({"revsort", 64}).summary();
  EXPECT_NE(s.find("8 x 8-wire hyper + shifter"), std::string::npos);
  EXPECT_NE(s.find("pins<=19"), std::string::npos);
}

TEST(Chip, PinsSumsDataAndControl) {
  EXPECT_EQ(make_switch_plan({"revsort", 64}).max_pins_per_chip(), 19u);
  // No shifter: a plain chip has exactly its 2w data pins.
  EXPECT_EQ(make_switch_plan({"hyper", 8}).max_pins_per_chip(), 16u);
}

}  // namespace
}  // namespace pcs::plan
