// Packed bit vector with the operations the concentrator-switch simulations
// need: population counts, prefix ranks, sortedness/nearsortedness probes,
// and (de)serialization to/from boolean containers.
//
// Valid bits are the currency of the whole paper: a switch's behaviour during
// setup is a function from a BitVec of n valid bits to a routing.  BitVec is
// the type all sorting substrates and switch models agree on.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace pcs {

class BitVec {
 public:
  BitVec() = default;

  /// A vector of `n` bits, all initialized to `value`.
  explicit BitVec(std::size_t n, bool value = false);

  /// Construct from an explicit bit pattern, e.g. BitVec({1,0,1,1}).
  BitVec(std::initializer_list<int> bits);

  /// Parse from a string of '0'/'1' characters; anything else throws.
  static BitVec from_string(const std::string& s);

  /// n bits with the first k set -- a concentrated (sorted) valid pattern.
  static BitVec prefix_ones(std::size_t n, std::size_t k);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);

  /// Unchecked get()/set(true)/set(false) for hot loops: the caller
  /// guarantees i < size().
  bool test(std::size_t i) const noexcept {
    return (words_[word_index(i)] & bit_mask(i)) != 0;
  }
  void mark(std::size_t i) noexcept { words_[word_index(i)] |= bit_mask(i); }
  void unmark(std::size_t i) noexcept { words_[word_index(i)] &= ~bit_mask(i); }
  void flip(std::size_t i);

  /// Number of 1 bits in the whole vector (the paper's k, the valid count).
  std::size_t count() const noexcept;

  /// Number of 1 bits strictly before position i (the routing rank of
  /// input i in a stable hyperconcentrator).  Precondition: i <= size().
  std::size_t rank1_before(std::size_t i) const;

  /// Position of the j-th 1 bit (0-indexed); size() if fewer than j+1 ones.
  std::size_t select1(std::size_t j) const noexcept;

  /// True iff the bits are in nonincreasing order (all 1s then all 0s) --
  /// the paper's definition of a *sorted* valid-bit sequence (Section 2).
  bool is_sorted_nonincreasing() const noexcept;

  /// True iff all bits have the same value (the paper's *clean* sequence).
  bool is_clean() const noexcept;

  /// All bits set to `value`.
  void fill(bool value) noexcept;

  /// Become `n` zero bits, reusing the word storage when it is large enough
  /// (a recycled result buffer allocates nothing in steady state).
  void reset(std::size_t n);

  /// Append one bit at the end.
  void push_back(bool value);

  bool operator==(const BitVec& other) const noexcept;
  bool operator!=(const BitVec& other) const noexcept { return !(*this == other); }

  /// Number of positions where the two vectors disagree (popcount of the
  /// XOR).  Precondition: equal sizes.
  std::size_t count_diff(const BitVec& other) const;

  /// Read-only view of the packed 64-bit words (bit i lives at word i/64,
  /// bit i%64; tail bits past size() are zero).  This is the interface the
  /// lane-transposed batch engine and word-at-a-time scans build on.
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Writable packed words, for word-level producers that fill a vector in
  /// place.  The writer keeps the tail bits past size() zero.
  std::uint64_t* word_data() noexcept { return words_.data(); }

  /// Bits per storage word (64).
  static constexpr std::size_t word_bits() noexcept { return kWordBits; }

  std::string to_string() const;

  std::vector<bool> to_bools() const;
  static BitVec from_bools(const std::vector<bool>& v);

  /// Adopt packed words directly (words.size() must cover n bits); tail bits
  /// past n are cleared.  Fast path for word-level producers.
  static BitVec from_words(std::vector<std::uint64_t> words, std::size_t n);

 private:
  static constexpr std::size_t kWordBits = 64;
  std::size_t word_index(std::size_t i) const noexcept { return i / kWordBits; }
  std::uint64_t bit_mask(std::size_t i) const noexcept {
    return std::uint64_t{1} << (i % kWordBits);
  }
  void clear_tail() noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// Calls fn(i) for every set bit i of `bits`, in ascending order, one word
/// scan per 64 bits.
template <class Fn>
void for_each_set_bit(const BitVec& bits, Fn&& fn) {
  const std::vector<std::uint64_t>& words = bits.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    for (std::uint64_t w = words[wi]; w != 0; w &= w - 1) {
      fn(wi * BitVec::word_bits() + static_cast<std::size_t>(std::countr_zero(w)));
    }
  }
}

}  // namespace pcs
