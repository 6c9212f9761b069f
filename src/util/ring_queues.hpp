// Bounded FIFO queues kept side by side in one flat buffer: the injection
// queues and VOQs of the campaign engines.  Every queue is a ring of the
// same slot count, so a steady-state push or pop is an index update and a
// copy, never a heap operation.
//
// The slot count starts at min(limit, 8) and doubles, up to the queues'
// `limit`, only when a push finds its ring full.  A generous limit (a
// client-chosen queue_depth) therefore costs memory only once traffic
// actually queues that deep.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace pcs {

template <class T>
class RingQueues {
 public:
  /// `count` empty queues that each hold at most `limit` items.  Storage
  /// held from an earlier reset is reused.
  void reset(std::size_t count, std::size_t limit) {
    PCS_REQUIRE(limit >= 1, "ring queue limit must be >= 1");
    limit_ = limit;
    slots_per_ = std::min<std::size_t>(limit, 8);
    slots_.resize(count * slots_per_);
    head_.assign(count, 0);
    size_.assign(count, 0);
  }

  std::size_t size(std::size_t q) const noexcept { return size_[q]; }
  bool empty(std::size_t q) const noexcept { return size_[q] == 0; }
  bool full(std::size_t q) const noexcept { return size_[q] >= limit_; }

  /// The k-th oldest item of queue q (k < size(q)).
  const T& at(std::size_t q, std::size_t k) const noexcept {
    return slots_[slot(q, k)];
  }

  void push(std::size_t q, const T& item) {
    PCS_REQUIRE(size_[q] < limit_, "ring queue " << q << " overflow");
    if (size_[q] == slots_per_) grow();
    slots_[slot(q, size_[q])] = item;
    ++size_[q];
  }

  T pop(std::size_t q) {
    PCS_REQUIRE(size_[q] > 0, "ring queue " << q << " underflow");
    const T item = at(q, 0);
    if (++head_[q] == slots_per_) head_[q] = 0;
    --size_[q];
    return item;
  }

 private:
  /// Buffer index of queue q's k-th oldest slot (head, k < slots_per_).
  std::size_t slot(std::size_t q, std::size_t k) const noexcept {
    std::size_t i = head_[q] + k;
    if (i >= slots_per_) i -= slots_per_;
    return q * slots_per_ + i;
  }

  /// Double every ring's slots (capped at limit_), each queue's items moving
  /// to the front of its new ring in FIFO order.
  void grow() {
    const std::size_t wider = std::min(limit_, 2 * slots_per_);
    std::vector<T> next(size_.size() * wider);
    for (std::size_t q = 0; q < size_.size(); ++q) {
      for (std::size_t k = 0; k < size_[q]; ++k) next[q * wider + k] = at(q, k);
      head_[q] = 0;
    }
    slots_.swap(next);
    slots_per_ = wider;
  }

  std::size_t limit_ = 1;
  std::size_t slots_per_ = 1;
  std::vector<T> slots_;
  std::vector<std::size_t> head_;
  std::vector<std::size_t> size_;
};

}  // namespace pcs
