// SwitchSpec::digest is the serving daemon's plan-cache key.  The golden
// values pin the byte layout: if any of these change, every persisted or
// cross-version cache key is invalidated, so a failure here means "you
// changed the digest algorithm", not "update the constants" -- bump the
// protocol/version story deliberately if that is really intended.
#include "switch/make_switch.hpp"

#include <gtest/gtest.h>

namespace pcs {
namespace {

SwitchSpec base_spec() {
  SwitchSpec spec;
  spec.family = "revsort";
  spec.n = 64;
  spec.m = 48;
  return spec;
}

TEST(SwitchDigest, GoldenValuesArePinned) {
  // Computed once from the FNV-1a layout (family bytes, n, m, beta bits,
  // r, s, passes, schedule, fault list, constant 0 byte); pinned forever.
  EXPECT_EQ(base_spec().digest(), 0x1d325abd870c673bull);

  SwitchSpec col;
  col.family = "columnsort";
  col.n = 256;
  col.m = 192;
  col.beta = 0.75;
  EXPECT_EQ(col.digest(), 0xf495d8b66a8bb226ull);

  SwitchSpec faulty = base_spec();
  faulty.faults.push_back(plan::ChipFault{1, 3});
  EXPECT_EQ(faulty.digest(), 0x5b01f3617324a7aeull);
}

TEST(SwitchDigest, StableAcrossCalls) {
  const SwitchSpec spec = base_spec();
  EXPECT_EQ(spec.digest(), spec.digest());
}

TEST(SwitchDigest, EveryFieldFeedsTheDigest) {
  const std::uint64_t base = base_spec().digest();

  SwitchSpec s = base_spec();
  s.family = "columnsort";
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.n = 256;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.m = 32;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.beta = 0.5;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.r = 16;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.s = 4;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.passes = 2;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.schedule = plan::ReshapeSchedule::kAlternating;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.faults.push_back(plan::ChipFault{0, 0});
  EXPECT_NE(s.digest(), base);
}

TEST(SwitchDigest, FaultOrderAndContentMatter) {
  SwitchSpec a = base_spec();
  a.faults = {plan::ChipFault{1, 2}, plan::ChipFault{3, 4}};
  SwitchSpec b = base_spec();
  b.faults = {plan::ChipFault{3, 4}, plan::ChipFault{1, 2}};
  SwitchSpec c = base_spec();
  c.faults = {plan::ChipFault{1, 2}};
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

// Guards against a classic concatenation bug: ("ab", n=1) colliding with
// ("a", ...) shapes -- the family length is mixed before its bytes.
TEST(SwitchDigest, FamilyLengthIsFramed) {
  SwitchSpec a;
  a.family = "rev";
  a.n = 64;
  SwitchSpec b;
  b.family = "re";
  b.n = 64;
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace pcs
