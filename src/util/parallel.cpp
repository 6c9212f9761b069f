#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>

namespace pcs {

namespace {

std::atomic<std::size_t> g_max_parallelism{0};

std::size_t clamp_threads(std::size_t threads) {
  const std::size_t cap = g_max_parallelism.load(std::memory_order_relaxed);
  const std::size_t want = threads == 0 ? 1 : threads;
  return cap == 0 ? want : std::min(want, cap);
}

}  // namespace

void set_max_parallelism(std::size_t threads) noexcept {
  g_max_parallelism.store(threads, std::memory_order_relaxed);
}

std::size_t max_parallelism() noexcept {
  return g_max_parallelism.load(std::memory_order_relaxed);
}

std::size_t work_grain(std::size_t count, std::size_t item_work,
                       std::size_t threads) {
  const std::size_t per_item = std::max<std::size_t>(1, item_work);
  const std::size_t min_items = (kMinChunkWork + per_item - 1) / per_item;
  return std::max(min_items, count / (clamp_threads(threads) * 8));
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t threads,
                  std::size_t grain) {
  ThreadPool::global().for_range(begin, end, body, clamp_threads(threads), grain);
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t threads, std::size_t grain) {
  ThreadPool::global().for_chunks(begin, end, body, clamp_threads(threads), grain);
}

}  // namespace pcs
