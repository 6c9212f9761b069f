// Pattern algebra: the permutation patterns are bijections at every
// addressable width, the addressability preconditions reject exactly the
// widths the classic definitions cannot serve, tornado wraps at any n, and
// the adversarial family keeps exact valid counts.
#include "traffic/pattern.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/assert.hpp"

namespace pcs::traffic {
namespace {

const PatternKind kPermutations[] = {PatternKind::kTranspose,
                                     PatternKind::kBitComp,
                                     PatternKind::kBitRev,
                                     PatternKind::kShuffle,
                                     PatternKind::kTornado};

TEST(TrafficPattern, KeywordRoundTrip) {
  const char* names[] = {"uniform", "transpose", "bitcomp",     "bitrev",
                         "shuffle", "tornado",   "hotspot",     "adversarial"};
  for (const char* name : names) {
    EXPECT_STREQ(pattern_name(pattern_from_string(name)), name);
  }
  EXPECT_THROW(pattern_from_string("nonuniform"), ContractViolation);
  EXPECT_THROW(pattern_from_string(""), ContractViolation);
}

TEST(TrafficPattern, PermutationPredicate) {
  for (PatternKind kind : kPermutations) EXPECT_TRUE(is_permutation(kind));
  EXPECT_FALSE(is_permutation(PatternKind::kUniform));
  EXPECT_FALSE(is_permutation(PatternKind::kHotspot));
  EXPECT_FALSE(is_permutation(PatternKind::kAdversarial));
}

TEST(TrafficPattern, PermutationsAreBijectionsAtSeveralWidths) {
  // n = 1 is the degenerate width: zero address bits, and every
  // permutation must still map the one source to itself.
  for (std::size_t n :
       {std::size_t{1}, std::size_t{16}, std::size_t{64}, std::size_t{256}}) {
    for (PatternKind kind : kPermutations) {
      require_addressable(kind, n);  // 1/16/64/256 all have even bit counts
      std::set<std::size_t> image;
      for (std::size_t src = 0; src < n; ++src) {
        const std::size_t dst = permute_dest(kind, src, n);
        ASSERT_LT(dst, n) << pattern_name(kind) << " n=" << n;
        image.insert(dst);
      }
      EXPECT_EQ(image.size(), n) << pattern_name(kind) << " n=" << n
                                 << " is not a bijection";
    }
  }
}

TEST(TrafficPattern, NonPowerOfTwoWidthsAreRejected) {
  for (PatternKind kind : {PatternKind::kTranspose, PatternKind::kBitComp,
                           PatternKind::kBitRev, PatternKind::kShuffle}) {
    EXPECT_THROW(require_addressable(kind, 12), ContractViolation)
        << pattern_name(kind);
    EXPECT_THROW(require_addressable(kind, 0), ContractViolation)
        << pattern_name(kind);
  }
  // Tornado is defined at every n, including non-powers of two.
  require_addressable(PatternKind::kTornado, 12);
  require_addressable(PatternKind::kUniform, 12);
}

TEST(TrafficPattern, TransposeNeedsAnEvenBitCount) {
  // 32 = 2^5: a power of two, but the address halves cannot be swapped.
  EXPECT_THROW(require_addressable(PatternKind::kTranspose, 32),
               ContractViolation);
  require_addressable(PatternKind::kBitComp, 32);
  require_addressable(PatternKind::kTranspose, 64);
  // Transpose over 16 endpoints swaps 2-bit halves: src 1 (0001) -> 4 (0100).
  EXPECT_EQ(permute_dest(PatternKind::kTranspose, 1, 16), 4u);
  EXPECT_EQ(permute_dest(PatternKind::kTranspose, 4, 16), 1u);
  EXPECT_EQ(permute_dest(PatternKind::kTranspose, 5, 16), 5u);
}

TEST(TrafficPattern, ClassicDefinitionsSpotChecks) {
  // bitcomp over 16: complement all 4 address bits.
  EXPECT_EQ(permute_dest(PatternKind::kBitComp, 0, 16), 15u);
  EXPECT_EQ(permute_dest(PatternKind::kBitComp, 5, 16), 10u);
  // bitrev over 16: 0001 -> 1000.
  EXPECT_EQ(permute_dest(PatternKind::kBitRev, 1, 16), 8u);
  EXPECT_EQ(permute_dest(PatternKind::kBitRev, 6, 16), 6u);  // 0110 palindrome
  // shuffle over 16: rotate left, 1000 -> 0001.
  EXPECT_EQ(permute_dest(PatternKind::kShuffle, 8, 16), 1u);
  EXPECT_EQ(permute_dest(PatternKind::kShuffle, 3, 16), 6u);
}

TEST(TrafficPattern, TornadoWrapsAtAnyWidth) {
  // dest = (src + ceil(n/2) - 1) mod n; check the wrap explicitly.
  for (std::size_t n : {std::size_t{7}, std::size_t{12}, std::size_t{16}}) {
    const std::size_t hop = (n + 1) / 2 - 1;
    std::set<std::size_t> image;
    for (std::size_t src = 0; src < n; ++src) {
      const std::size_t dst = permute_dest(PatternKind::kTornado, src, n);
      EXPECT_EQ(dst, (src + hop) % n) << "n=" << n << " src=" << src;
      image.insert(dst);
    }
    EXPECT_EQ(image.size(), n);
    // The last sources wrap past the end rather than clamping.
    EXPECT_EQ(permute_dest(PatternKind::kTornado, n - 1, n), (n - 1 + hop) % n);
    EXPECT_LT(permute_dest(PatternKind::kTornado, n - 1, n), n);
  }
}

TEST(TrafficPattern, HotspotWiresClampAndReject) {
  EXPECT_EQ(hotspot_wires(64, 0.125), 8u);
  EXPECT_EQ(hotspot_wires(100, 0.125), 12u);   // floor(12.5)
  EXPECT_EQ(hotspot_wires(4, 0.01), 1u);       // never below one wire
  EXPECT_EQ(hotspot_wires(64, 1.0), 64u);      // fraction 1 = every wire hot
  for (double bad : {0.0, -0.25, 1.5}) {
    try {
      hotspot_wires(64, bad);
      FAIL() << "fraction " << bad << " accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("hotspot_fraction"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TrafficPattern, RateProfileShapes) {
  const auto flat = rate_profile(PatternKind::kUniform, 16, 0.3, 0.125);
  ASSERT_EQ(flat.size(), 16u);
  for (double r : flat) EXPECT_DOUBLE_EQ(r, 0.3);
  // Hotspot front-loads the hot block at min(1, 4p), cold wires at p/2.
  const auto hot = rate_profile(PatternKind::kHotspot, 64, 0.2, 0.125);
  ASSERT_EQ(hot.size(), 64u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(hot[i], 0.8) << i;
  for (std::size_t i = 8; i < 64; ++i) EXPECT_DOUBLE_EQ(hot[i], 0.1) << i;
  // Saturating intensity: the hot block caps at 1.
  const auto sat = rate_profile(PatternKind::kHotspot, 64, 0.5, 0.125);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(sat[i], 1.0) << i;
}

TEST(TrafficPattern, AdversarialLayoutsKeepExactCounts) {
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{16},
                        std::size_t{33}, std::size_t{64}}) {
    for (std::size_t idx = 0; idx < kAdversarialFamilySize; ++idx) {
      const BitVec v = adversarial_layout(64, k, 8, idx);
      ASSERT_EQ(v.size(), 64u);
      EXPECT_EQ(v.count(), k) << "layout " << idx << " k=" << k;
    }
  }
  // k past the width is a caller error, not a silent clamp.
  EXPECT_THROW(adversarial_layout(16, 99, 4, 0), ContractViolation);
  // The family cycles by index modulo its size.
  EXPECT_EQ(adversarial_layout(64, 16, 8, 2),
            adversarial_layout(64, 16, 8, 2 + kAdversarialFamilySize));
  // Layouts are genuinely distinct at interior k.
  for (std::size_t a = 0; a < kAdversarialFamilySize; ++a) {
    for (std::size_t b = a + 1; b < kAdversarialFamilySize; ++b) {
      EXPECT_NE(adversarial_layout(64, 16, 8, a),
                adversarial_layout(64, 16, 8, b))
          << a << " vs " << b;
    }
  }
}

}  // namespace
}  // namespace pcs::traffic
