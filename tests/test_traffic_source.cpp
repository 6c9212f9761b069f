// TrafficSource behaviour: golden-pinned bit-identity of the legacy
// arrival= configs through the src/traffic factory, determinism per seed,
// hotspot intensity semantics, and the destination-side pattern contracts.
//
// The golden hashes were captured from the generators that predate the
// traffic subsystem (since deleted); the factory must reproduce those
// offered streams byte for byte, so these pins are the refactor's safety
// net.
#include "traffic/traffic_source.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runtime/config.hpp"
#include "traffic/factory.hpp"
#include "util/assert.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace pcs::traffic {
namespace {

// FNV-1a 64 over little-endian u64 bytes: the digest every golden pin uses.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv_mix_bits(std::uint64_t h, const BitVec& v) {
  h = fnv_mix(h, v.size());
  for (std::uint64_t w : v.words()) h = fnv_mix(h, w);
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::uint64_t stream_hash(TrafficSource& src, std::uint64_t seed,
                          int epochs) {
  Rng rng(seed);
  std::uint64_t h = kFnvOffset;
  for (int e = 0; e < epochs; ++e) h = fnv_mix_bits(h, src.next_valid(rng));
  return h;
}

struct GoldenCase {
  const char* arrival;
  std::size_t width;
  double p;
  std::uint64_t seed;
  int epochs;
  std::uint64_t want;
  // The explicit pattern=/injection= spelling of the same legacy arrival.
  const char* pattern;
  const char* injection;
};

const GoldenCase kGolden[] = {
    {"bernoulli", 64, 0.25, 17, 8, 0x00f07a8021ae5b08ULL, "uniform", "bernoulli"},
    {"exact", 64, 0.25, 17, 8, 0x385675b2ec847feeULL, "uniform", "exact"},
    {"bursty", 64, 0.25, 17, 8, 0xe1f3f5a93c03d6dbULL, "uniform", "onoff"},
    {"hotspot", 64, 0.25, 17, 8, 0x25ed9cccc1f16b7dULL, "hotspot", "bernoulli"},
    {"bernoulli", 100, 0.55, 99, 5, 0x6997db698c3c968dULL, "uniform", "bernoulli"},
    {"exact", 100, 0.55, 99, 5, 0x9480ee4a9fb41d68ULL, "uniform", "exact"},
    {"bursty", 100, 0.55, 99, 5, 0xdc2e7161d7eb0c53ULL, "uniform", "onoff"},
    {"hotspot", 100, 0.55, 99, 5, 0xed331f0c1269daabULL, "hotspot", "bernoulli"},
};

TEST(TrafficSourceGolden, LegacyArrivalConfigsAreBitIdentical) {
  for (const GoldenCase& c : kGolden) {
    rt::RuntimeConfig cfg;
    cfg.arrival = c.arrival;
    cfg.arrival_p = c.p;
    auto src = rt::make_traffic(cfg, c.width);
    EXPECT_EQ(stream_hash(*src, c.seed, c.epochs), c.want)
        << "arrival=" << c.arrival << " width=" << c.width << " p=" << c.p;
  }
}

TEST(TrafficSourceGolden, ExplicitPatternInjectionKeysMatchTheLegacyStreams) {
  // pattern=/injection= spelled out must hit the exact same bytes as the
  // arrival= shorthand they replace.
  for (const GoldenCase& c : kGolden) {
    rt::RuntimeConfig cfg;
    cfg.arrival_p = c.p;
    cfg.pattern = c.pattern;
    cfg.injection = c.injection;
    auto src = rt::make_traffic(cfg, c.width);
    EXPECT_EQ(stream_hash(*src, c.seed, c.epochs), c.want)
        << "pattern=" << c.pattern << " injection=" << c.injection;
  }
}

TEST(TrafficSourceGolden, FabricUniformDestinationStreamIsBitIdentical) {
  // The fabric draws one destination per accepted arrival, ascending source
  // order; the uniform pattern must replay the legacy rng.below stream.
  rt::RuntimeConfig cfg;
  cfg.arrival = "bernoulli";
  cfg.arrival_p = 0.3;
  auto src = rt::make_traffic(cfg, 16);
  Rng rng(5);
  std::uint64_t h = kFnvOffset;
  for (int e = 0; e < 12; ++e) {
    const BitVec v = src->next_valid(rng);
    h = fnv_mix_bits(h, v);
    for (std::size_t g = 0; g < v.size(); ++g) {
      if (v.get(g)) h = fnv_mix(h, src->dest_for(rng, g, 8));
    }
  }
  EXPECT_EQ(h, 0x798de0c2e902a4f0ULL);
}

TEST(TrafficSource, EqualSeedsGiveByteIdenticalStreams) {
  const char* patterns[] = {"uniform", "hotspot", "tornado", "adversarial"};
  const char* injections[] = {"bernoulli", "onoff", "exact"};
  for (const char* pattern : patterns) {
    for (const char* injection : injections) {
      TrafficSpec spec;
      spec.width = 64;
      spec.pattern = pattern;
      spec.injection = injection;
      spec.intensity = 0.4;
      auto a = make_source(spec);
      auto b = make_source(spec);
      Rng ra(123), rb(123);
      for (int e = 0; e < 16; ++e) {
        ASSERT_EQ(a->next_valid(ra), b->next_valid(rb))
            << pattern << "/" << injection << " epoch " << e;
      }
    }
  }
}

TEST(TrafficSource, DifferentSeedsDiverge) {
  TrafficSpec spec;
  spec.width = 64;
  auto a = make_source(spec);
  auto b = make_source(spec);
  Rng ra(123), rb(124);
  bool diverged = false;
  for (int e = 0; e < 16 && !diverged; ++e) {
    diverged = a->next_valid(ra) != b->next_valid(rb);
  }
  EXPECT_TRUE(diverged);
}

TEST(TrafficSource, HotspotIntensitySemantics) {
  // fraction 0.25 of 128 wires = 32 hot wires at min(1, 4p), rest at p/2.
  TrafficSpec spec;
  spec.width = 128;
  spec.pattern = "hotspot";
  spec.intensity = 0.2;
  spec.hotspot_fraction = 0.25;
  auto src = make_source(spec);
  Rng rng(42);
  std::size_t hot_hits = 0, cold_hits = 0;
  const int epochs = 400;
  for (int e = 0; e < epochs; ++e) {
    const BitVec v = src->next_valid(rng);
    for (std::size_t i = 0; i < 32; ++i) hot_hits += v.get(i);
    for (std::size_t i = 32; i < 128; ++i) cold_hits += v.get(i);
  }
  const double hot_density = hot_hits / (32.0 * epochs);
  const double cold_density = cold_hits / (96.0 * epochs);
  EXPECT_NEAR(hot_density, 0.8, 0.05);   // min(1, 4 * 0.2)
  EXPECT_NEAR(cold_density, 0.1, 0.03);  // 0.2 / 2
}

TEST(TrafficSource, HotspotFractionOutOfRangeIsRejectedByName) {
  for (double bad : {0.0, -0.5, 1.01}) {
    TrafficSpec spec;
    spec.width = 64;
    spec.pattern = "hotspot";
    spec.hotspot_fraction = bad;
    try {
      make_source(spec);
      FAIL() << "hotspot_fraction " << bad << " accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("hotspot_fraction"),
                std::string::npos)
          << e.what();
    }
  }
  // The config layer rejects the same range at parse time, naming the key.
  try {
    rt::parse_config_text("hotspot_fraction = 1.5\n");
    FAIL() << "config accepted hotspot_fraction = 1.5";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("hotspot_fraction"),
              std::string::npos)
        << e.what();
  }
}

TEST(TrafficSource, HotspotDestinationsConcentrate) {
  TrafficSpec spec;
  spec.width = 64;
  spec.pattern = "hotspot";
  spec.hotspot_fraction = 0.125;
  auto src = make_source(spec);
  Rng rng(7);
  const std::size_t sinks = 64, hot = 8;
  std::size_t hot_dests = 0;
  const int draws = 4000;
  for (int d = 0; d < draws; ++d) {
    const std::uint32_t dest = src->dest_for(rng, d % 64, sinks);
    ASSERT_LT(dest, sinks);
    hot_dests += dest < hot;
  }
  // Half the draws go uniformly over all sinks, half land in the hot block:
  // expect 0.5 + 0.5 * 8/64 = 0.5625 of destinations below `hot`.
  EXPECT_NEAR(hot_dests / static_cast<double>(draws), 0.5625, 0.04);
}

TEST(TrafficSource, PermutationDestinationsConsumeNoRandomness) {
  TrafficSpec spec;
  spec.width = 16;
  spec.pattern = "transpose";
  auto src = make_source(spec);
  Rng a(9), b(9);
  for (std::size_t s = 0; s < 16; ++s) {
    EXPECT_EQ(src->dest_for(a, s, 16), permute_dest(PatternKind::kTranspose, s, 16));
  }
  // The rng stream is untouched: both generators still agree.
  EXPECT_EQ(a.next(), b.next());
}

TEST(TrafficSource, FactoryRejectsBadSpecs) {
  TrafficSpec spec;
  spec.width = 64;
  spec.pattern = "zipf";
  EXPECT_THROW(make_source(spec), ContractViolation);
  spec.pattern = "uniform";
  spec.injection = "poisson";
  EXPECT_THROW(make_source(spec), ContractViolation);
  spec.injection = "bernoulli";
  spec.pattern = "worstcase";  // needs a switch to stress
  EXPECT_THROW(make_source(spec), ContractViolation);
  // ComposedSource is the pattern x process composition only; the
  // adversarial family has its own deterministic source.
  EXPECT_THROW(ComposedSource(PatternKind::kAdversarial,
                              std::make_unique<BernoulliProcess>(16, 0.5), 0.125),
               ContractViolation);
}

TEST(TrafficSource, FixedPatternReplaysItsBitsForever) {
  BitVec p(8);
  p.set(1, true);
  p.set(6, true);
  FixedPatternSource src(p, "pinned");
  Rng rng(3);
  for (int e = 0; e < 5; ++e) EXPECT_EQ(src.next_valid(rng), p);
  EXPECT_NE(src.name().find("pinned"), std::string::npos);
}

TEST(TrafficSource, NamesDescribeTheComposition) {
  TrafficSpec spec;
  spec.width = 64;
  spec.pattern = "tornado";
  spec.injection = "onoff";
  auto src = make_source(spec);
  EXPECT_NE(src->name().find("tornado"), std::string::npos);
  EXPECT_NE(src->name().find("onoff"), std::string::npos);
  EXPECT_EQ(src->width(), 64u);
}

}  // namespace
}  // namespace pcs::traffic
