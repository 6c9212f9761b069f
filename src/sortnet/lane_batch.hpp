// Lane-transposed batch evaluation of bit-level sorting meshes.
//
// The gate layer's Evaluator::evaluate_lanes showed the idiom: put 64
// independent patterns in the 64 bits of one word and every bitwise op
// prices 64 Monte-Carlo trials at once.  LaneBatch lifts the same idea to
// the mesh substrates the multichip switches are built from.  Storage is
// *lane-transposed*: word p holds, in bit l, pattern l's valid bit at mesh
// position p (the switches' flat column-major wire numbering).  The two
// primitives every switch pipeline reduces to are then word-parallel:
//
//   * concentrate_segments(L): the bit projection of a stable per-chip
//     concentration -- within each contiguous L-wire chip, each lane's ones
//     sink to the low positions.  Implemented as a bit-sliced counter: a
//     carry-save add of every word into ceil(lg(L+1)) bit planes (one
//     counter per lane, all 64 counted at once), then a thermometer
//     write-back that decrements the planes until they drain.
//   * gather(src): the inbound-link read the plan executor uses, applied as
//     whole-word moves (64 patterns rewired per store) -- position i of the
//     next arrangement reads position src[i] of the current one.  It needs
//     no bijection (sources may repeat or be skipped) and may change the
//     active width, so width-changing stages (full Columnsort's widened pad
//     stage) batch too.  Constant idle/pad feeds are modelled as sentinel
//     positions past every stage's wires, pinned with set_constant to
//     all-zeros (idle) or all-ones (pad) words.
//
// Labels do not survive bit-slicing, so LaneBatch computes nearsorted valid
// bits, not routings; the label-level batch path lives in the switches'
// route_batch counting kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitvec.hpp"

namespace pcs::sortnet {

class LaneBatch {
 public:
  /// Patterns carried per word.
  static constexpr std::size_t kLanes = 64;

  /// An engine over meshes of n wire positions.  `capacity` (>= n; 0 means
  /// n) sizes the position store: slots [n, capacity) are addressable by
  /// gather() and set_constant() but lie outside every load/store -- the
  /// fused executor parks its idle/pad sentinel words and the widened
  /// stages' extra wires there.
  explicit LaneBatch(std::size_t n, std::size_t capacity = 0);

  std::size_t positions() const noexcept { return n_; }

  /// Active width of the current arrangement: n after load(), a stage's
  /// wire count after gather() through that stage's link.
  std::size_t width() const noexcept { return width_; }

  /// Number of patterns currently loaded (<= kLanes).
  std::size_t lanes() const noexcept { return lanes_; }

  /// Load patterns[first, first + count) into lanes 0..count-1 (count <=
  /// kLanes; each pattern must have n bits).  Unused lanes are zero and stay
  /// zero through every operation.
  void load(const std::vector<BitVec>& patterns, std::size_t first,
            std::size_t count);

  /// Lane l's current n-bit arrangement, as a BitVec.
  BitVec extract(std::size_t lane) const;

  /// Extract all loaded lanes into out[first, first + lanes()).
  void store(std::vector<BitVec>& out, std::size_t first) const;

  /// For every contiguous segment of seg_len positions (seg_len must divide
  /// the active width), move each lane's ones to the segment's low
  /// positions -- the bit projection of a chip's stable concentration.
  void concentrate_segments(std::size_t seg_len);

  /// Read the next arrangement through a gather: position i becomes the
  /// current position src[i] (any slot below capacity, sentinels included).
  /// Not required to be a bijection.  The active width becomes src.size()
  /// (<= capacity); sentinel slots must be re-pinned with set_constant
  /// afterwards, as the gather recycles the position store.
  void gather(const std::vector<std::uint32_t>& src);

  /// Pin one position slot to a constant word across all lanes (all-zeros =
  /// idle feed, all-ones = pad feed).  The slot may lie past the active
  /// width but must be below capacity.
  void set_constant(std::size_t pos, std::uint64_t word);

  /// Zero positions [lo, hi) in every lane: the bit projection of a dead
  /// chip driving its output pins invalid (plan fault execution).
  void clear_positions(std::size_t lo, std::size_t hi);

 private:
  std::size_t n_;
  std::size_t width_;
  std::size_t lanes_ = 0;
  std::vector<std::uint64_t> pos_;      // padded to a whole 64-word block
  std::vector<std::uint64_t> scratch_;  // gather double-buffer
  std::vector<std::uint64_t> planes_;   // bit-sliced counters
};

}  // namespace pcs::sortnet
