// The shared plan cache: hit/miss accounting, ref-counted checkouts under
// concurrency, and byte-budget LRU eviction (in-use entries pinned).
#include "serve/plan_cache.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace pcs::serve {
namespace {

SwitchSpec revsort_spec(std::size_t n, std::size_t m) {
  SwitchSpec spec;
  spec.family = "revsort";
  spec.n = n;
  spec.m = m;
  return spec;
}

constexpr std::size_t kBigBudget = 256u << 20;

TEST(PlanCache, MissThenHit) {
  PlanCache cache(kBigBudget);
  const SwitchSpec spec = revsort_spec(64, 48);

  const PlanCache::Checkout cold = cache.checkout(spec);
  ASSERT_TRUE(cold.sw);
  EXPECT_FALSE(cold.hit);
  EXPECT_GT(cold.bytes, 0u);
  EXPECT_EQ(cold.key, spec.digest());

  const PlanCache::Checkout warm = cache.checkout(spec);
  EXPECT_TRUE(warm.hit);
  EXPECT_EQ(warm.sw.get(), cold.sw.get());  // literally the same switch

  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, cold.bytes);
}

TEST(PlanCache, ZeroBudgetCompilesEveryTime) {
  PlanCache cache(0);
  const SwitchSpec spec = revsort_spec(64, 48);
  const PlanCache::Checkout a = cache.checkout(spec);
  const PlanCache::Checkout b = cache.checkout(spec);
  ASSERT_TRUE(a.sw);
  ASSERT_TRUE(b.sw);
  EXPECT_FALSE(a.hit);
  EXPECT_FALSE(b.hit);
  EXPECT_NE(a.sw.get(), b.sw.get());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCache, BadSpecThrowsAndInsertsNothing) {
  PlanCache cache(kBigBudget);
  SwitchSpec bad = revsort_spec(100, 50);  // not a perfect square
  EXPECT_THROW(cache.checkout(bad), ContractViolation);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCache, LruEvictionUnderByteBudget) {
  // Learn one entry's footprint, then size the budget for roughly two.
  const std::size_t one = [] {
    PlanCache probe(kBigBudget);
    return probe.checkout(revsort_spec(64, 48)).bytes;
  }();
  ASSERT_GT(one, 0u);

  PlanCache cache(2 * one + one / 2);
  // Three same-shape entries distinguished by m -> three keys, same bytes.
  {
    (void)cache.checkout(revsort_spec(64, 16));
    (void)cache.checkout(revsort_spec(64, 32));
    // Touch m=16 so m=32 is now the LRU entry.
    (void)cache.checkout(revsort_spec(64, 16));
    (void)cache.checkout(revsort_spec(64, 48));
  }  // all checkouts dropped -> everything evictable

  const PlanCache::Stats s = cache.stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_LE(s.bytes, 2 * one + one / 2);
  // The survivors are the recently-used entries: m=16 and m=48 hit, m=32
  // (the evicted LRU) misses again.
  EXPECT_TRUE(cache.checkout(revsort_spec(64, 48)).hit);
  EXPECT_TRUE(cache.checkout(revsort_spec(64, 16)).hit);
  EXPECT_FALSE(cache.checkout(revsort_spec(64, 32)).hit);
}

TEST(PlanCache, InUseEntriesAreNotEvicted) {
  const std::size_t one = [] {
    PlanCache probe(kBigBudget);
    return probe.checkout(revsort_spec(64, 48)).bytes;
  }();

  PlanCache cache(one + one / 2);  // budget for ~1.5 entries
  // Hold the first checkout while inserting more: the held entry must
  // survive even though it becomes the LRU.
  const PlanCache::Checkout held = cache.checkout(revsort_spec(64, 16));
  (void)cache.checkout(revsort_spec(64, 32));
  (void)cache.checkout(revsort_spec(64, 48));

  EXPECT_TRUE(cache.checkout(revsort_spec(64, 16)).hit)
      << "held entry evicted while checked out";
  // The budget transiently overshoots rather than dropping in-use plans.
  EXPECT_GE(cache.stats().bytes, one);
}

TEST(PlanCache, ShrinkingBudgetEvictsImmediately) {
  PlanCache cache(kBigBudget);
  (void)cache.checkout(revsort_spec(64, 16));
  (void)cache.checkout(revsort_spec(64, 32));
  ASSERT_EQ(cache.stats().entries, 2u);

  cache.set_byte_budget(1);  // keeps at least one entry (never evicts to zero
                             // on its own unless budget is exactly 0)
  EXPECT_LE(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
}

// Many threads check out the same key concurrently: everyone must get a
// usable switch, the cache must end with ONE entry, and races between
// concurrent cold compiles must be accounted, not double-inserted.
TEST(PlanCache, ConcurrentCheckoutSharesOneEntry) {
  PlanCache cache(kBigBudget);
  const SwitchSpec spec = revsort_spec(64, 48);

  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const plan::PlanSwitch>> held(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &spec, &held, t] {
      for (int i = 0; i < 50; ++i) {
        const PlanCache::Checkout co = cache.checkout(spec);
        ASSERT_TRUE(co.sw);
        held[t] = co.sw;  // keep the last checkout alive across the join
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  // Every thread's final checkout resolves to the single cached instance.
  const PlanCache::Checkout final_co = cache.checkout(spec);
  for (const auto& sw : held) EXPECT_EQ(sw.get(), final_co.sw.get());
  // All 400 checkouts were answered; cold compiles that lost the insert
  // race are counted as rebuild_races, and hits + misses covers them all.
  EXPECT_EQ(s.hits + s.misses, kThreads * 50u);
  EXPECT_GE(s.misses, 1u);
}

}  // namespace
}  // namespace pcs::serve
