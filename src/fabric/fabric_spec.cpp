#include "fabric/fabric_spec.hpp"

#include <bit>

#include "util/assert.hpp"
#include "util/digest.hpp"

namespace pcs::fabric {

Topology topology_from_string(const std::string& s) {
  if (s == "single") return Topology::kSingle;
  if (s == "omega") return Topology::kOmega;
  if (s == "butterfly") return Topology::kButterfly;
  if (s == "fattree") return Topology::kFatTree;
  PCS_REQUIRE(false, "unknown fabric topology '"
                         << s << "' (single | omega | butterfly | fattree)");
}

const char* topology_name(Topology t) noexcept {
  switch (t) {
    case Topology::kSingle: return "single";
    case Topology::kOmega: return "omega";
    case Topology::kButterfly: return "butterfly";
    case Topology::kFatTree: return "fattree";
  }
  return "?";
}

}  // namespace pcs::fabric

namespace pcs {

void FabricSpec::validate() const {
  const std::size_t r = radix;
  const std::size_t H = hops;
  PCS_REQUIRE(H >= 1, "FabricSpec.hops: need at least one hop, got " << H);
  PCS_REQUIRE(r >= 1, "FabricSpec.radix: must be >= 1, got " << r);
  switch (topology) {
    case fabric::Topology::kSingle:
      PCS_REQUIRE(H == 1, "FabricSpec.hops: topology=single is the 1-hop "
                          "fabric; hops=" << H);
      break;
    case fabric::Topology::kOmega:
    case fabric::Topology::kButterfly:
      break;
    case fabric::Topology::kFatTree:
      PCS_REQUIRE(H == 3, "FabricSpec.hops: topology=fattree is the 2-level "
                          "(3-hop) fat-tree (leaf-up, spine, leaf-down); "
                          "hops=" << H);
      break;
  }
  PCS_REQUIRE(node.n % r == 0,
              "FabricSpec.node.n: " << node.n << " must divide by radix=" << r
                                    << " (equal in-link blocks)");
  PCS_REQUIRE(node.m % r == 0,
              "FabricSpec.node.m: " << node.m << " must divide by radix=" << r
                                    << " (equal out-link blocks)");
  PCS_REQUIRE(node.m / r <= node.n / r,
              "FabricSpec.node: out-block " << node.m / r
                  << " wider than downstream in-block " << node.n / r
                  << ": a channel could overrun its buffer ports");
  PCS_REQUIRE(credits >= 1,
              "FabricSpec.credits: credit-based flow control needs >= 1, got "
                  << credits);
  PCS_REQUIRE(fault_hop < H, "FabricSpec.fault_hop: " << fault_hop
                                 << " out of range for hops=" << H);
  PCS_REQUIRE(route == "deterministic" || route == "adaptive",
              "FabricSpec.route: '" << route
                  << "' is not a route policy (deterministic | adaptive)");
  PCS_REQUIRE(deflect_max == 0 || route == "adaptive",
              "FabricSpec.deflect_max: " << deflect_max
                  << " needs route=adaptive (deterministic routing never "
                     "deflects)");
  PCS_REQUIRE(route == "deterministic" || r <= 64,
              "FabricSpec.radix: adaptive routing supports radix <= 64, got "
                  << r);

  // The node switch must compile to a plan (the fabric routes through the
  // fused PlanExecutor batch path) and, when healthy, concentrate at least
  // one message per epoch or the fabric can never move anything.
  SwitchSpec healthy = node;
  healthy.faults.clear();
  plan::SwitchPlan p = make_switch_plan(healthy);
  PCS_REQUIRE(p.epsilon < p.m,
              "FabricSpec.node: plan " << p.name
                  << " has zero guaranteed capacity (m=" << p.m
                  << ", epsilon=" << p.epsilon
                  << "); the fabric would deadlock");
}

SwitchSpec FabricSpec::node_spec_at(std::size_t hop) const {
  PCS_REQUIRE(hop < hops, "node_spec_at: hop " << hop << " out of range for "
                                                  "hops=" << hops);
  SwitchSpec spec = node;
  if (hop != fault_hop) spec.faults.clear();
  return spec;
}

std::uint64_t FabricSpec::digest() const {
  Digest d;
  d.mix_u64(node.digest());
  d.mix_byte(static_cast<std::uint8_t>(topology));
  d.mix_u64(hops);
  d.mix_u64(radix);
  d.mix_u64(credits);
  // Length-prefixed strings so ("rr", "deterministic") can never collide
  // with a concatenation-ambiguous pair -- same framing as SwitchSpec.
  d.mix_u64(alloc.size());
  for (char c : alloc) d.mix_byte(static_cast<std::uint8_t>(c));
  d.mix_u64(route.size());
  for (char c : route) d.mix_byte(static_cast<std::uint8_t>(c));
  d.mix_u64(deflect_max);
  d.mix_u64(fault_hop);
  return d.value();
}

}  // namespace pcs
