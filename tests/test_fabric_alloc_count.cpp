// Heap allocations of steady-state campaigns in both campaign engines.  The
// replaceable operator new below counts every allocation of the whole
// binary, which is why this suite is its own executable.
//
// The fabric campaign is perfbench's fabric_omega shape: a 3-hop radix-4
// omega of Revsort(256 -> 192) nodes, 8 credits, iSLIP, queue depth 4,
// uniform Bernoulli load 0.6, seed 1, 32 warmup + 1024 measured epochs.  The
// schedule is pinned serial (epochs_in_flight = 1), so the suite counts the
// same thing under a forced PCS_FABRIC_EPOCHS_IN_FLIGHT.  The single-switch
// campaigns are serve_mix's FabricRuntime shapes: Revsort(256 -> 192) and
// Columnsort(256 -> 192, beta = 0.75), 4 lanes, uniform Bernoulli load 0.3,
// queue depth 4, buffer-retry, 16 warmup + 64 measured epochs.  Each count
// follows one warm-up campaign on the same engine, so it sees the steady
// state a long-lived engine reaches.  What remains is one allocation per
// lane per epoch -- the BitVec that TrafficSource::next_valid returns by
// value -- plus per-campaign setup and registry keys.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>

#include <functional>

#include "fabric/make_fabric.hpp"
#include "runtime/fabric_runtime.hpp"
#include "runtime/metrics.hpp"
#include "switch/make_switch.hpp"
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

/// Run `campaign` once to warm up, then count the allocations of a second
/// run, all under a parallelism clamp of `threads` (0 = the default pool
/// width).  `campaign` reports into the registry it is given.
CampaignCount count_second_campaign(
    std::size_t threads,
    const std::function<void(rt::MetricsRegistry&)>& campaign) {
  pcs::set_max_parallelism(threads);
  {
    rt::MetricsRegistry warm;
    campaign(warm);
  }
  rt::MetricsRegistry metrics;
  g_allocs.store(0);
  g_counting.store(true);
  campaign(metrics);
  g_counting.store(false);
  pcs::set_max_parallelism(0);
  CampaignCount c;
  c.allocs = g_allocs.load();
  c.delivered = metrics.counter("total.delivered").value();
  return c;
}

std::unique_ptr<traffic::TrafficSource> bernoulli(std::size_t width,
                                                  double load) {
  traffic::TrafficSpec t;
  t.width = width;
  t.pattern = "uniform";
  t.injection = "bernoulli";
  t.intensity = load;
  return traffic::make_source(t);
}

/// The fabric_omega-shaped simulator, counted on its second campaign.
CampaignCount count_fabric_campaign(std::size_t threads) {
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
    return bernoulli(width, 0.6);
  });
  return count_second_campaign(
      threads, [&](rt::MetricsRegistry& m) { sim->run(m); });
}

/// A serve_mix-shaped single-switch campaign on `family`, counted on the
/// second run of one runtime.
CampaignCount count_runtime_campaign(std::size_t threads,
                                     const std::string& family) {
  SwitchSpec spec;
  spec.family = family;
  spec.n = 256;
  spec.m = 192;
  spec.beta = 0.75;
  const std::unique_ptr<sw::ConcentratorSwitch> sw = pcs::make_switch(spec);
  rt::RuntimeOptions opts;
  opts.queue_depth = 4;
  opts.policy = rt::CongestionPolicy::kBufferRetry;
  opts.lanes = 4;
  opts.seed = 1;
  opts.warmup_epochs = 16;
  opts.measure_epochs = 64;
  rt::FabricRuntime runtime(*sw, opts, [](std::size_t) {
    return bernoulli(256, 0.3);
  });
  return count_second_campaign(
      threads, [&](rt::MetricsRegistry& m) { runtime.run(m); });
}

double per_message(const CampaignCount& c, const char* what) {
  const double per_msg =
      static_cast<double>(c.allocs) / static_cast<double>(c.delivered);
  std::cout << what << ": " << per_msg << " allocations per delivered message ("
            << c.allocs << " / " << c.delivered << ")\n";
  return per_msg;
}

TEST(FabricAllocCount, DefaultThreadsAllocateAsOneThread) {
  const CampaignCount one = count_fabric_campaign(1);
  const CampaignCount dflt = count_fabric_campaign(0);
  std::cout << "allocations: threads=1 " << one.allocs << ", default threads "
            << dflt.allocs << " (" << one.delivered << " delivered)\n";
  EXPECT_EQ(dflt.delivered, one.delivered);
  EXPECT_EQ(dflt.allocs, one.allocs);
}

TEST(FabricAllocCount, FabricAtMostATenthPerDeliveredMessage) {
  const CampaignCount c = count_fabric_campaign(0);
  ASSERT_GT(c.delivered, 0u);
  EXPECT_LE(per_message(c, "fabric_omega shape"), 0.1);
}

TEST(FabricAllocCount, RuntimeDefaultThreadsAllocateAsOneThread) {
  for (const char* family : {"revsort", "columnsort"}) {
    const CampaignCount one = count_runtime_campaign(1, family);
    const CampaignCount dflt = count_runtime_campaign(0, family);
    EXPECT_EQ(dflt.delivered, one.delivered) << family;
    EXPECT_EQ(dflt.allocs, one.allocs) << family;
  }
}

TEST(FabricAllocCount, RuntimeAtMostThreeHundredthsPerDeliveredMessage) {
  for (const char* family : {"revsort", "columnsort"}) {
    const CampaignCount c = count_runtime_campaign(0, family);
    ASSERT_GT(c.delivered, 0u) << family;
    EXPECT_LE(per_message(c, family), 0.03) << family;
  }
}

}  // namespace
}  // namespace pcs::fabric
