#include "sortnet/lane_batch.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace pcs::sortnet {

namespace {

// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3).  Note the
// block swaps pair row k's low bits with row k|j's high bits, so in raw bit
// indices this computes the *anti*-transpose a'[w] bit b = a[63-b] bit 63-w.
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      std::uint64_t t = (a[k] ^ (a[k | j] >> j)) & m;
      a[k] ^= t;
      a[k | j] ^= t << j;
    }
  }
}

// Pure bit-index transpose: afterwards word w bit l == old word l bit w.
// Reversing the rows on both sides of the anti-transpose cancels the index
// flips.  Involutive, so the same routine packs BitVec words into
// lane-transposed form and back.
void transpose_lanes(std::uint64_t a[64]) {
  std::reverse(a, a + 64);
  transpose64(a);
  std::reverse(a, a + 64);
}

}  // namespace

LaneBatch::LaneBatch(std::size_t n, std::size_t capacity) : n_(n), width_(n) {
  PCS_REQUIRE(n > 0, "LaneBatch n");
  PCS_REQUIRE(capacity == 0 || capacity >= n,
              "LaneBatch capacity: capacity=" << capacity << " n=" << n);
  const std::size_t slots = capacity == 0 ? n : capacity;
  pos_.assign(ceil_div(slots, kLanes) * kLanes, 0);
  scratch_.assign(pos_.size(), 0);
}

void LaneBatch::load(const std::vector<BitVec>& patterns, std::size_t first,
                     std::size_t count) {
  PCS_REQUIRE(count >= 1 && count <= kLanes,
              "LaneBatch::load lane count: count=" << count << " kLanes=" << kLanes);
  PCS_REQUIRE(first + count <= patterns.size(),
              "LaneBatch::load range: first=" << first << " count=" << count
              << " patterns=" << patterns.size());
  lanes_ = count;
  width_ = n_;
  const std::size_t blocks = ceil_div(n_, kLanes);
  std::uint64_t block[64];
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (l < count) {
        const BitVec& p = patterns[first + l];
        PCS_REQUIRE(p.size() == n_, "LaneBatch::load pattern width: pattern has "
                                        << p.size() << " bits, batch is n=" << n_);
        const auto& w = p.words();
        block[l] = b < w.size() ? w[b] : 0;
      } else {
        block[l] = 0;
      }
    }
    transpose_lanes(block);
    std::copy(block, block + kLanes, pos_.begin() + static_cast<std::ptrdiff_t>(b * kLanes));
  }
  // Padded positions past n carry no wire; keep them zero in every lane.
  std::fill(pos_.begin() + static_cast<std::ptrdiff_t>(n_), pos_.end(), 0);
}

BitVec LaneBatch::extract(std::size_t lane) const {
  PCS_REQUIRE(lane < lanes_, "LaneBatch::extract lane");
  PCS_REQUIRE(width_ == n_, "LaneBatch::extract width: width=" << width_
                                                               << " n=" << n_);
  const std::size_t blocks = ceil_div(n_, kLanes);
  std::vector<std::uint64_t> words(blocks, 0);
  std::uint64_t block[64];
  for (std::size_t b = 0; b < blocks; ++b) {
    std::copy(pos_.begin() + static_cast<std::ptrdiff_t>(b * kLanes),
              pos_.begin() + static_cast<std::ptrdiff_t>((b + 1) * kLanes), block);
    transpose_lanes(block);
    words[b] = block[lane];
  }
  return BitVec::from_words(std::move(words), n_);
}

void LaneBatch::store(std::vector<BitVec>& out, std::size_t first) const {
  PCS_REQUIRE(first + lanes_ <= out.size(), "LaneBatch::store range");
  PCS_REQUIRE(width_ == n_, "LaneBatch::store width: width=" << width_
                                                             << " n=" << n_);
  const std::size_t blocks = ceil_div(n_, kLanes);
  std::vector<std::vector<std::uint64_t>> words(
      lanes_, std::vector<std::uint64_t>(blocks, 0));
  std::uint64_t block[64];
  for (std::size_t b = 0; b < blocks; ++b) {
    std::copy(pos_.begin() + static_cast<std::ptrdiff_t>(b * kLanes),
              pos_.begin() + static_cast<std::ptrdiff_t>((b + 1) * kLanes), block);
    transpose_lanes(block);
    for (std::size_t l = 0; l < lanes_; ++l) words[l][b] = block[l];
  }
  for (std::size_t l = 0; l < lanes_; ++l) {
    out[first + l] = BitVec::from_words(std::move(words[l]), n_);
  }
}

void LaneBatch::concentrate_segments(std::size_t seg_len) {
  PCS_REQUIRE(seg_len > 0 && width_ % seg_len == 0,
              "LaneBatch::concentrate_segments seg_len must divide the width");
  const std::size_t depth = ceil_log2(seg_len + 1);
  if (planes_.size() < depth) planes_.assign(depth, 0);
  std::uint64_t* planes = planes_.data();
  for (std::size_t s0 = 0; s0 < width_; s0 += seg_len) {
    // Count the ones per lane: carry-save add each position word into the
    // bit planes (plane b holds bit b of all 64 counters).
    for (std::size_t p = s0; p < s0 + seg_len; ++p) {
      std::uint64_t carry = pos_[p];
      for (std::size_t b = 0; carry != 0; ++b) {
        std::uint64_t t = planes[b] & carry;
        planes[b] ^= carry;
        carry = t;
      }
    }
    // Thermometer write-back: a lane keeps emitting 1s while its counter is
    // nonzero; each emitted word decrements the counters it drew from.
    for (std::size_t p = s0; p < s0 + seg_len; ++p) {
      std::uint64_t nz = 0;
      for (std::size_t b = 0; b < depth; ++b) nz |= planes[b];
      pos_[p] = nz;
      std::uint64_t borrow = nz;
      for (std::size_t b = 0; borrow != 0; ++b) {
        std::uint64_t old = planes[b];
        planes[b] = old ^ borrow;
        borrow &= ~old;
      }
    }
    // Emitting seg_len words drains exactly what was counted; the planes are
    // zero again for the next segment.
  }
}

void LaneBatch::clear_positions(std::size_t lo, std::size_t hi) {
  PCS_REQUIRE(lo <= hi && hi <= width_,
              "LaneBatch::clear_positions range: lo=" << lo << " hi=" << hi
                                                      << " width=" << width_);
  std::fill(pos_.begin() + static_cast<std::ptrdiff_t>(lo),
            pos_.begin() + static_cast<std::ptrdiff_t>(hi), 0);
}

void LaneBatch::gather(const std::vector<std::uint32_t>& src) {
  PCS_REQUIRE(src.size() > 0 && src.size() <= pos_.size(),
              "LaneBatch::gather width: src=" << src.size()
                                              << " capacity=" << pos_.size());
  const std::uint64_t* in = pos_.data();
  std::uint64_t* out = scratch_.data();
  for (std::size_t i = 0; i < src.size(); ++i) out[i] = in[src[i]];
  pos_.swap(scratch_);
  width_ = src.size();
}

void LaneBatch::set_constant(std::size_t pos, std::uint64_t word) {
  PCS_REQUIRE(pos < pos_.size(),
              "LaneBatch::set_constant slot: pos=" << pos
                                                   << " capacity=" << pos_.size());
  pos_[pos] = word;
}

}  // namespace pcs::sortnet
