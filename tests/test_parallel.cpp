#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace pcs {
namespace {

TEST(Parallel, CoversEveryIndexOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; }, 4);
  parallel_for(7, 3, [&](std::size_t) { ran = true; }, 4);
  EXPECT_FALSE(ran);
}

TEST(Parallel, NonzeroBegin) {
  std::atomic<std::size_t> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); }, 3);
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10 + 11 + ... + 19
}

TEST(Parallel, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(0, 5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ZeroThreadsTreatedAsOne) {
  std::atomic<int> count{0};
  parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); }, 0);
  EXPECT_EQ(count.load(), 10);
}

TEST(Parallel, ExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(
          0, 100,
          [](std::size_t i) {
            if (i == 57) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(Parallel, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(0, 3, [&](std::size_t i) { hits[i].fetch_add(1); }, 16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, DefaultThreadCountPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(Parallel, GrainVariantsCoverEveryIndexOnce) {
  const std::size_t n = 1000;
  for (std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                            std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, 4, grain);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(Parallel, ChunksAreDisjointAndComplete) {
  const std::size_t n = 1237;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        ASSERT_LE(hi, n);
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      4, 10);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, ChunksEmptyRangeIsNoop) {
  bool ran = false;
  parallel_for_chunks(3, 3, [&](std::size_t, std::size_t) { ran = true; }, 4);
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, GlobalSingletonIsStable) {
  EXPECT_GE(ThreadPool::global().worker_count(), 1u);
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int t = 0; t < 100; ++t) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, OnWorkerThreadDetection) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<bool> on_worker{false};
  pool.submit([&] { on_worker.store(pool.on_worker_thread()); });
  pool.wait_idle();
  EXPECT_TRUE(on_worker.load());
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.for_range(
          0, 1000,
          [](std::size_t i) {
            if (i == 500) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
  // The pool must stay usable after a failed range.
  std::vector<std::atomic<int>> hits(100);
  pool.for_range(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRangesDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.for_range(
      0, 8,
      [&](std::size_t) {
        pool.for_range(0, 50, [&](std::size_t) { total.fetch_add(1); }, 4);
      },
      4);
  EXPECT_EQ(total.load(), std::size_t{400});
}

// A batch with less work than one chunk runs as one inline call on the
// caller, whatever the thread count; a larger one still covers every index
// once, in chunks of at least kMinChunkWork.
TEST(Parallel, WorkSizedChunks) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  bool off_caller = false;
  const std::size_t small = kMinChunkWork / 256 - 1;  // just under one chunk
  parallel_for_work(small, 256, [&](std::size_t lo, std::size_t hi) {
    calls.emplace_back(lo, hi);
    off_caller = off_caller || std::this_thread::get_id() != caller;
  }, 4);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, small));
  EXPECT_FALSE(off_caller);

  const std::size_t n = 4096;
  const std::size_t item_work = 256;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<std::size_t> short_chunks{0};
  parallel_for_work(n, item_work, [&](std::size_t lo, std::size_t hi) {
    if ((hi - lo) * item_work < kMinChunkWork && hi != n) short_chunks.fetch_add(1);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  }, 4);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(short_chunks.load(), 0u);
}

TEST(ThreadPool, OversubscribedConcurrentRanges) {
  // Several caller threads share the global pool at once; every range must
  // still cover its indices exactly once.
  constexpr int kCallers = 4;
  constexpr std::size_t kPer = 2000;
  std::array<std::atomic<std::size_t>, kCallers> sums{};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&sums, c] {
      parallel_for(0, kPer, [&sums, c](std::size_t i) {
        sums[static_cast<std::size_t>(c)].fetch_add(i + 1);
      }, 8);
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[static_cast<std::size_t>(c)].load(), kPer * (kPer + 1) / 2);
  }
}

}  // namespace
}  // namespace pcs
