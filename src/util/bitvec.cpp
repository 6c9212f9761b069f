#include "util/bitvec.hpp"

#include <bit>

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace pcs {

BitVec::BitVec(std::size_t n, bool value)
    : words_(ceil_div(n, kWordBits), value ? ~std::uint64_t{0} : 0), size_(n) {
  clear_tail();
}

BitVec::BitVec(std::initializer_list<int> bits) : BitVec(bits.size()) {
  std::size_t i = 0;
  for (int b : bits) set(i++, b != 0);
}

BitVec BitVec::from_string(const std::string& s) {
  BitVec v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    PCS_REQUIRE(s[i] == '0' || s[i] == '1', "BitVec::from_string character");
    v.set(i, s[i] == '1');
  }
  return v;
}

BitVec BitVec::prefix_ones(std::size_t n, std::size_t k) {
  PCS_REQUIRE(k <= n, "BitVec::prefix_ones k out of range");
  BitVec v(n);
  std::size_t full = k / kWordBits;
  for (std::size_t w = 0; w < full; ++w) v.words_[w] = ~std::uint64_t{0};
  std::size_t rem = k % kWordBits;
  if (rem != 0) v.words_[full] = (std::uint64_t{1} << rem) - 1;
  return v;
}

bool BitVec::get(std::size_t i) const {
  PCS_REQUIRE(i < size_, "BitVec::get out of range");
  return (words_[word_index(i)] & bit_mask(i)) != 0;
}

void BitVec::set(std::size_t i, bool value) {
  PCS_REQUIRE(i < size_, "BitVec::set out of range");
  if (value) {
    words_[word_index(i)] |= bit_mask(i);
  } else {
    words_[word_index(i)] &= ~bit_mask(i);
  }
}

void BitVec::flip(std::size_t i) {
  PCS_REQUIRE(i < size_, "BitVec::flip out of range");
  words_[word_index(i)] ^= bit_mask(i);
}

std::size_t BitVec::count() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t BitVec::rank1_before(std::size_t i) const {
  PCS_REQUIRE(i <= size_, "BitVec::rank1_before out of range");
  std::size_t full_words = i / kWordBits;
  std::size_t total = 0;
  for (std::size_t w = 0; w < full_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  std::size_t rem = i % kWordBits;
  if (rem != 0) {
    std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
    total += static_cast<std::size_t>(std::popcount(words_[full_words] & mask));
  }
  return total;
}

std::size_t BitVec::select1(std::size_t j) const noexcept {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if ((words_[word_index(i)] & bit_mask(i)) != 0) {
      if (seen == j) return i;
      ++seen;
    }
  }
  return size_;
}

bool BitVec::is_sorted_nonincreasing() const noexcept {
  bool seen_zero = false;
  for (std::size_t i = 0; i < size_; ++i) {
    bool b = (words_[word_index(i)] & bit_mask(i)) != 0;
    if (!b) {
      seen_zero = true;
    } else if (seen_zero) {
      return false;
    }
  }
  return true;
}

bool BitVec::is_clean() const noexcept {
  if (size_ == 0) return true;
  std::size_t ones = count();
  return ones == 0 || ones == size_;
}

void BitVec::fill(bool value) noexcept {
  for (auto& w : words_) w = value ? ~std::uint64_t{0} : 0;
  clear_tail();
}

void BitVec::reset(std::size_t n) {
  words_.assign(ceil_div(n, kWordBits), 0);
  size_ = n;
}

void BitVec::push_back(bool value) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  ++size_;
  set(size_ - 1, value);
}

bool BitVec::operator==(const BitVec& other) const noexcept {
  return size_ == other.size_ && words_ == other.words_;
}

std::size_t BitVec::count_diff(const BitVec& other) const {
  PCS_REQUIRE(size_ == other.size_, "BitVec::count_diff size mismatch");
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w] ^ other.words_[w]));
  }
  return total;
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) s[i] = '1';
  }
  return s;
}

std::vector<bool> BitVec::to_bools() const {
  std::vector<bool> v(size_);
  for (std::size_t i = 0; i < size_; ++i) v[i] = get(i);
  return v;
}

BitVec BitVec::from_bools(const std::vector<bool>& v) {
  BitVec out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out.set(i, v[i]);
  return out;
}

BitVec BitVec::from_words(std::vector<std::uint64_t> words, std::size_t n) {
  PCS_REQUIRE(words.size() >= ceil_div(n, kWordBits), "BitVec::from_words size");
  BitVec out;
  out.words_ = std::move(words);
  out.words_.resize(ceil_div(n, kWordBits));
  out.size_ = n;
  out.clear_tail();
  return out;
}

void BitVec::clear_tail() noexcept {
  std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

}  // namespace pcs
