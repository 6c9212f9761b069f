// Heap allocations of a steady-state fabric campaign.  The replaceable
// operator new below counts every allocation of the whole binary, which is
// why this suite is its own executable.
//
// The campaign is perfbench's fabric_omega shape: a 3-hop radix-4 omega of
// Revsort(256 -> 192) nodes, 8 credits, iSLIP, queue depth 4, uniform
// Bernoulli load 0.6, seed 1, 32 warmup + 1024 measured epochs.  The
// schedule is pinned serial (epochs_in_flight = 1), so the suite counts the
// same thing under a forced PCS_FABRIC_EPOCHS_IN_FLIGHT.  A warm-up campaign
// runs first on the same simulator, so the counted one sees the steady
// state a long-lived simulator reaches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>

#include "fabric/make_fabric.hpp"
#include "runtime/metrics.hpp"
#include "traffic/factory.hpp"
#include "util/parallel.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align = 0) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align == 0
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t a) {
  return counted_alloc(size, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return counted_alloc(size, static_cast<std::size_t>(a));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pcs::fabric {
namespace {

struct CampaignCount {
  std::uint64_t allocs = 0;
  std::uint64_t delivered = 0;
};

/// Build a fabric_omega-shaped simulator, run one warm-up campaign, then
/// count the allocations of a second one, all under a parallelism clamp of
/// `threads` (0 = the default pool width).
CampaignCount count_campaign(std::size_t threads) {
  pcs::set_max_parallelism(threads);
  FabricSpec spec;
  spec.topology = Topology::kOmega;
  spec.hops = 3;
  spec.radix = 4;
  spec.node.family = "revsort";
  spec.node.n = 256;
  spec.node.m = 192;
  spec.credits = 8;
  spec.alloc = "islip";
  FabricOptions opts;
  opts.queue_depth = 4;
  opts.seed = 1;
  opts.warmup_epochs = 32;
  opts.measure_epochs = 1024;
  opts.epochs_in_flight = 1;
  auto sim = pcs::make_fabric(spec, opts, [](std::size_t width) {
    traffic::TrafficSpec t;
    t.width = width;
    t.pattern = "uniform";
    t.injection = "bernoulli";
    t.intensity = 0.6;
    return traffic::make_source(t);
  });
  {
    rt::MetricsRegistry warm;
    sim->run(warm);
  }
  rt::MetricsRegistry metrics;
  g_allocs.store(0);
  g_counting.store(true);
  sim->run(metrics);
  g_counting.store(false);
  pcs::set_max_parallelism(0);
  CampaignCount c;
  c.allocs = g_allocs.load();
  c.delivered = metrics.counter("total.delivered").value();
  return c;
}

TEST(FabricAllocCount, DefaultThreadsAllocateAsOneThread) {
  const CampaignCount one = count_campaign(1);
  const CampaignCount dflt = count_campaign(0);
  std::cout << "allocations: threads=1 " << one.allocs << ", default threads "
            << dflt.allocs << " (" << one.delivered << " delivered)\n";
  EXPECT_EQ(dflt.delivered, one.delivered);
  EXPECT_EQ(dflt.allocs, one.allocs);
}

TEST(FabricAllocCount, AtMostSevenPerDeliveredMessage) {
  const CampaignCount c = count_campaign(0);
  ASSERT_GT(c.delivered, 0u);
  const double per_msg =
      static_cast<double>(c.allocs) / static_cast<double>(c.delivered);
  std::cout << "allocations per delivered message: " << per_msg << " ("
            << c.allocs << " / " << c.delivered << ")\n";
  EXPECT_LE(per_msg, 7.0);
}

}  // namespace
}  // namespace pcs::fabric
