// Batch/sequential equivalence exactly at the 64-lane word boundaries.
//
// The batch engine packs 64 patterns per LaneBatch word; sizes 63, 64, 65
// exercise a partial final word, an exact word, and a one-lane spill into a
// second word, while 1 and 128 cover the degenerate and two-full-word cases.
// Every switch family is swept at every size, including the m = 1 and m = n
// output edges, and cross-checked bit-for-bit against the scalar path
// through the shared invariant library.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/invariants.hpp"
#include "switch/make_switch.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 63, 64, 65, 128};

/// A mix of structured and random patterns: empty, full, single-bit, prefix,
/// suffix, then Bernoulli at varied densities.
std::vector<BitVec> make_batch(std::size_t n, std::size_t count, Rng& rng) {
  std::vector<BitVec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 6) {
      case 0: out.emplace_back(n); break;
      case 1: out.push_back(BitVec::prefix_ones(n, n)); break;
      case 2: {
        BitVec v(n);
        v.set(rng.below(n), true);
        out.push_back(std::move(v));
        break;
      }
      case 3: out.push_back(BitVec::prefix_ones(n, rng.below(n + 1))); break;
      case 4: {
        BitVec v(n);
        const std::size_t k = rng.below(n + 1);
        for (std::size_t j = n - k; j < n; ++j) v.set(j, true);
        out.push_back(std::move(v));
        break;
      }
      default: out.push_back(rng.bernoulli_bits(n, rng.uniform01())); break;
    }
  }
  return out;
}

void sweep(const SwitchSpec& spec, std::uint64_t seed) {
  const auto sw = make_switch(spec);
  Rng rng(seed);
  for (std::size_t batch : kBatchSizes) {
    core::InvariantReport report;
    const std::vector<BitVec> valids = make_batch(sw->inputs(), batch, rng);
    EXPECT_TRUE(core::check_batch_identity(*sw, valids, report))
        << sw->name() << " batch=" << batch << ": " << report.to_string();
  }
}

SwitchSpec columnsort(std::size_t r, std::size_t s, std::size_t m) {
  return {.family = "columnsort", .m = m, .r = r, .s = s};
}

SwitchSpec multipass(std::size_t r, std::size_t s, std::size_t passes,
                     std::size_t m, plan::ReshapeSchedule schedule) {
  return {.family = "multipass", .m = m, .r = r, .s = s, .passes = passes,
          .schedule = schedule};
}

TEST(LaneBoundaries, HyperSwitch) {
  sweep({"hyper", 64, 48}, 900);
  sweep({"hyper", 64, 1}, 901);    // m = 1 edge
  sweep({"hyper", 64, 64}, 902);   // m = n edge
  sweep({"hyper", 100, 37}, 903);  // non-power-of-two n
}

TEST(LaneBoundaries, RevsortSwitch) {
  sweep({"revsort", 64, 48}, 910);
  sweep({"revsort", 64, 1}, 911);
  sweep({"revsort", 64, 64}, 912);
  sweep({"revsort", 256, 200}, 913);
}

TEST(LaneBoundaries, ColumnsortSwitch) {
  sweep(columnsort(16, 4, 48), 920);
  sweep(columnsort(16, 4, 1), 921);
  sweep(columnsort(16, 4, 64), 922);
  sweep(columnsort(8, 2, 11), 923);
}

TEST(LaneBoundaries, FullSortHyper) {
  sweep({"full-revsort", 64}, 930);  // m = n by construction
  sweep({.family = "full-columnsort", .r = 8, .s = 2}, 931);
}

TEST(LaneBoundaries, MultipassColumnsort) {
  sweep(multipass(16, 4, 2, 48, plan::ReshapeSchedule::kSame), 940);
  sweep(multipass(16, 4, 2, 1, plan::ReshapeSchedule::kAlternating), 941);
  sweep(multipass(16, 4, 3, 64, plan::ReshapeSchedule::kAlternating), 942);
}

TEST(LaneBoundaries, TrivialOneInputSwitch) {
  // n = 1 collapses every lane-boundary case to single bits; still must agree.
  sweep({"revsort", 1, 1}, 950);
  sweep({"hyper", 1, 1}, 951);
}

}  // namespace
}  // namespace pcs
