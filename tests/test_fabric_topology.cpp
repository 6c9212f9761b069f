// FabricGraph wiring: shapes, the destination-tag self-routing property
// (following channel()/out_link() from any source lands on exactly the
// destination sink), channel/upstream inversion, and spec validation.
#include <gtest/gtest.h>

#include "fabric/topology.hpp"
#include "util/assert.hpp"

namespace pcs::fabric {
namespace {

SwitchSpec small_node() {
  SwitchSpec node;
  // Columnsort(64 -> 32) compiles to r=32, s=2 with epsilon 1: plenty of
  // guaranteed capacity (31) at a size small enough for fast campaigns.
  node.family = "columnsort";
  node.n = 64;
  node.m = 32;
  return node;
}

FabricSpec spec_of(Topology t, std::size_t hops, std::size_t radix) {
  FabricSpec spec;
  spec.topology = t;
  spec.hops = hops;
  spec.radix = radix;
  spec.node = small_node();
  return spec;
}

TEST(FabricTopology, FromStringRoundTrips) {
  for (Topology t : {Topology::kSingle, Topology::kOmega, Topology::kButterfly,
                     Topology::kFatTree}) {
    EXPECT_EQ(topology_from_string(topology_name(t)), t);
  }
  EXPECT_THROW(topology_from_string("torus"), ContractViolation);
}

TEST(FabricTopology, OmegaShape) {
  FabricGraph g(spec_of(Topology::kOmega, 3, 2));
  EXPECT_EQ(g.nodes_at(0), 4u);  // 2^(3-1)
  EXPECT_EQ(g.total_nodes(), 12u);
  EXPECT_EQ(g.sources(), 8u);
  EXPECT_EQ(g.sinks(), 8u);
  EXPECT_EQ(g.in_block(), 32u);
  EXPECT_EQ(g.out_block(), 16u);
}

TEST(FabricTopology, FatTreeShape) {
  FabricGraph g(spec_of(Topology::kFatTree, 3, 4));
  EXPECT_EQ(g.nodes_at(0), 4u);  // r leaves / spines / leaves
  EXPECT_EQ(g.total_nodes(), 12u);
  EXPECT_EQ(g.sources(), 16u);  // r^2 hosts
}

TEST(FabricTopology, SingleIsTheOneHopFabric) {
  FabricGraph g(spec_of(Topology::kSingle, 1, 4));
  EXPECT_EQ(g.nodes_at(0), 1u);
  EXPECT_EQ(g.sources(), 4u);
  // Routing is direct ejection: the out-link is the sink.
  for (std::size_t dest = 0; dest < g.sinks(); ++dest) {
    EXPECT_EQ(g.out_link(0, 0, dest), dest);
  }
}

// The load-bearing property: from EVERY source, digit routing through the
// channels delivers to EVERY destination exactly.
void check_self_routing(const FabricGraph& g) {
  const std::size_t r = g.radix();
  for (std::size_t src = 0; src < g.sources(); ++src) {
    for (std::size_t dest = 0; dest < g.sinks(); ++dest) {
      std::size_t node = src / r;
      for (std::size_t hop = 0; hop + 1 < g.hops(); ++hop) {
        const std::size_t link = g.out_link(hop, node, dest);
        ASSERT_LT(link, r);
        node = g.channel(hop, node, link).node;
      }
      const std::size_t last = g.hops() - 1;
      EXPECT_EQ(node * r + g.out_link(last, node, dest), dest)
          << "src " << src << " dest " << dest;
    }
  }
}

TEST(FabricTopology, OmegaSelfRoutes) {
  check_self_routing(FabricGraph(spec_of(Topology::kOmega, 3, 2)));
  check_self_routing(FabricGraph(spec_of(Topology::kOmega, 2, 4)));
  check_self_routing(FabricGraph(spec_of(Topology::kOmega, 4, 2)));
}

TEST(FabricTopology, ButterflySelfRoutes) {
  check_self_routing(FabricGraph(spec_of(Topology::kButterfly, 3, 2)));
  check_self_routing(FabricGraph(spec_of(Topology::kButterfly, 2, 4)));
  check_self_routing(FabricGraph(spec_of(Topology::kButterfly, 4, 2)));
}

TEST(FabricTopology, FatTreeSelfRoutes) {
  check_self_routing(FabricGraph(spec_of(Topology::kFatTree, 3, 2)));
  check_self_routing(FabricGraph(spec_of(Topology::kFatTree, 3, 4)));
}

TEST(FabricTopology, DegenerateRadixOneChainSelfRoutes) {
  check_self_routing(FabricGraph(spec_of(Topology::kOmega, 3, 1)));
  check_self_routing(FabricGraph(spec_of(Topology::kButterfly, 2, 1)));
}

// Every inter-hop boundary must be a permutation: distinct (node, link)
// channels land on distinct (node, inlink) pairs, and upstream() inverts
// channel() exactly (credits returned to the wrong channel would corrupt
// flow control silently).
void check_channel_inversion(const FabricGraph& g) {
  const std::size_t r = g.radix();
  for (std::size_t hop = 0; hop + 1 < g.hops(); ++hop) {
    std::vector<bool> seen(g.nodes_at(hop + 1) * r, false);
    for (std::size_t node = 0; node < g.nodes_at(hop); ++node) {
      for (std::size_t link = 0; link < r; ++link) {
        const FabricGraph::Channel ch = g.channel(hop, node, link);
        const std::size_t slot = ch.node * r + ch.inlink;
        EXPECT_FALSE(seen[slot]) << "two channels feed one in-link";
        seen[slot] = true;
        const FabricGraph::Upstream up = g.upstream(hop + 1, ch.node, ch.inlink);
        EXPECT_EQ(up.node, node);
        EXPECT_EQ(up.link, link);
      }
    }
  }
}

TEST(FabricTopology, BoundariesArePermutationsAndInvert) {
  check_channel_inversion(FabricGraph(spec_of(Topology::kOmega, 3, 2)));
  check_channel_inversion(FabricGraph(spec_of(Topology::kOmega, 4, 2)));
  check_channel_inversion(FabricGraph(spec_of(Topology::kButterfly, 3, 2)));
  check_channel_inversion(FabricGraph(spec_of(Topology::kButterfly, 2, 4)));
  check_channel_inversion(FabricGraph(spec_of(Topology::kFatTree, 3, 4)));
  check_channel_inversion(FabricGraph(spec_of(Topology::kOmega, 3, 1)));
}

TEST(FabricTopology, ValidationRejectsBadSpecs) {
  // single requires hops == 1; fattree requires hops == 3.
  EXPECT_THROW(FabricGraph{spec_of(Topology::kSingle, 2, 2)}, ContractViolation);
  EXPECT_THROW(FabricGraph{spec_of(Topology::kFatTree, 2, 2)}, ContractViolation);
  // Node shape must divide by the radix.
  FabricSpec odd = spec_of(Topology::kOmega, 2, 2);
  odd.node.n = 64;
  odd.node.m = 31;
  EXPECT_THROW(FabricGraph{odd}, ContractViolation);
  FabricSpec r3 = spec_of(Topology::kOmega, 2, 3);
  EXPECT_THROW(FabricGraph{r3}, ContractViolation);  // 64 % 3 != 0
  // Every family compiles to a plan, so the single chip is a valid node.
  FabricSpec hyper = spec_of(Topology::kOmega, 2, 2);
  hyper.node.family = "hyper";
  EXPECT_NO_THROW(FabricGraph{hyper});
  // Zero credits would deadlock every channel.
  FabricSpec zc = spec_of(Topology::kOmega, 2, 2);
  zc.credits = 0;
  EXPECT_THROW(FabricGraph{zc}, ContractViolation);
  // fault_hop must name a real hop.
  FabricSpec fh = spec_of(Topology::kOmega, 2, 2);
  fh.fault_hop = 2;
  EXPECT_THROW(FabricGraph{fh}, ContractViolation);
}

// candidate_mask() is adaptive routing's view of the topology: bit d set
// iff out-link d stays on a minimal path.  It must agree with the
// deterministic digit rule everywhere the digit rule applies, expose ALL
// equal-cost links where the topology genuinely multipaths (the fat-tree
// up-hop), and return 0 exactly where a deflected message is stranded.
TEST(FabricTopology, CandidateMaskContainsTheDeterministicLink) {
  for (const FabricSpec& s :
       {spec_of(Topology::kOmega, 3, 2), spec_of(Topology::kButterfly, 3, 2),
        spec_of(Topology::kFatTree, 3, 4), spec_of(Topology::kSingle, 1, 4)}) {
    FabricGraph g(s);
    const std::size_t r = g.radix();
    for (std::size_t dest = 0; dest < g.sinks(); ++dest) {
      // Walk the deterministic path from every source; at every visited
      // node the mask must include the link the digit rule takes.
      for (std::size_t src = 0; src < g.sources(); ++src) {
        std::size_t node = src / r;
        for (std::size_t hop = 0; hop < g.hops(); ++hop) {
          const std::size_t link = g.out_link(hop, node, dest);
          const std::uint64_t mask = g.candidate_mask(hop, node, dest);
          EXPECT_NE(mask & (std::uint64_t{1} << link), 0u)
              << g.name() << " hop " << hop << " node " << node << " dest "
              << dest;
          if (hop + 1 < g.hops()) node = g.channel(hop, node, link).node;
        }
      }
    }
  }
}

TEST(FabricTopology, SingleMinimalPathTopologiesHaveSingletonMasks) {
  for (const FabricSpec& s :
       {spec_of(Topology::kOmega, 3, 2), spec_of(Topology::kButterfly, 3, 2)}) {
    FabricGraph g(s);
    for (std::size_t hop = 0; hop < g.hops(); ++hop) {
      for (std::size_t node = 0; node < g.nodes_at(hop); ++node) {
        for (std::size_t dest = 0; dest < g.sinks(); ++dest) {
          const std::uint64_t mask = g.candidate_mask(hop, node, dest);
          // Zero or a power of two: omega/butterfly paths are unique.
          EXPECT_EQ(mask & (mask - 1), 0u) << g.name();
          EXPECT_EQ(mask != 0, g.reachable(hop, node, dest));
        }
      }
    }
  }
}

TEST(FabricTopology, FatTreeUpHopExposesAllEqualCostLinks) {
  FabricGraph g(spec_of(Topology::kFatTree, 3, 4));
  const std::uint64_t full = (std::uint64_t{1} << g.radix()) - 1;
  for (std::size_t node = 0; node < g.nodes_at(0); ++node) {
    for (std::size_t dest = 0; dest < g.sinks(); ++dest) {
      // Every spine reaches every leaf: all four up-links are candidates.
      EXPECT_EQ(g.candidate_mask(0, node, dest), full);
    }
  }
  // The spine hop collapses to the destination leaf's link; the down hop is
  // reachable only on the destination leaf itself.
  for (std::size_t spine = 0; spine < g.nodes_at(1); ++spine) {
    EXPECT_EQ(g.candidate_mask(1, spine, 13), std::uint64_t{1} << (13 / 4));
  }
  EXPECT_EQ(g.candidate_mask(2, 13 / 4, 13), std::uint64_t{1} << (13 % 4));
  EXPECT_EQ(g.candidate_mask(2, 0, 13), 0u) << "wrong down-leaf is a dead end";
}

TEST(FabricTopology, UnreachableMeansZeroMask) {
  // Omega: after hop 1 the node's low digit has consumed dest's top digit;
  // a node whose low digit disagrees can no longer reach dest.
  FabricGraph g(spec_of(Topology::kOmega, 3, 2));
  std::size_t reachable = 0, stranded = 0;
  for (std::size_t node = 0; node < g.nodes_at(1); ++node) {
    for (std::size_t dest = 0; dest < g.sinks(); ++dest) {
      const bool ok = (node % 2) == (dest / 4);
      EXPECT_EQ(g.reachable(1, node, dest), ok);
      (ok ? reachable : stranded)++;
    }
  }
  EXPECT_EQ(reachable, stranded);  // half the pairs are off-path at hop 1
}

TEST(FabricTopology, NameIsDescriptive) {
  EXPECT_EQ(FabricGraph(spec_of(Topology::kOmega, 3, 2)).name(),
            "omega(hops=3, radix=2)");
}

}  // namespace
}  // namespace pcs::fabric
