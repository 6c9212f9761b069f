// The declarative description of a multi-hop fabric, promoted to the same
// public standing as SwitchSpec: `pcs::FabricSpec` + `pcs::make_fabric`
// (make_fabric.hpp) are the one construction path for fabrics, exactly as
// `pcs::SwitchSpec` + `pcs::make_switch` are for single switches.
//
// A FabricSpec names the wiring shape (topology / hops / radix), the
// per-node switch (a full SwitchSpec; faults apply to hop `fault_hop`
// only), the flow-control depth (credits), the VOQ allocator, and the
// routing policy ("deterministic" destination-digit self-routing, or
// "adaptive" minimal-adaptive over the topology's equal-cost candidate
// links with an optional bounded-deflection fallback).
//
// validate() throws ContractViolation naming the offending field;
// digest() is the stable FNV-1a fingerprint over EVERY field (golden-pinned
// by test_fabric_spec.cpp) and keys the serving daemon's campaign replies.
#pragma once

#include <cstdint>
#include <string>

#include "switch/make_switch.hpp"

namespace pcs::fabric {

enum class Topology : unsigned char { kSingle, kOmega, kButterfly, kFatTree };

/// "single" | "omega" | "butterfly" | "fattree"; throws on unknown names.
Topology topology_from_string(const std::string& s);
const char* topology_name(Topology t) noexcept;

}  // namespace pcs::fabric

namespace pcs {

struct FabricSpec {
  fabric::Topology topology = fabric::Topology::kOmega;
  std::size_t hops = 3;   ///< switch stages a message traverses (>= 1)
  std::size_t radix = 2;  ///< links per node; the destination digit base
  /// Per-node switch, any family.  n and m must divide by radix, and the
  /// healthy switch must keep a positive guaranteed capacity
  /// (m - epsilon >= 1) or nothing can move; FabricSim checks that where
  /// it builds the node.
  SwitchSpec node;
  std::size_t credits = 8;   ///< per-channel credit pool (downstream VOQ slots)
  std::string alloc = "rr";  ///< VOQ allocator: "rr" | "islip"
  /// Routing policy at pool-entry link choice: "deterministic" (the
  /// destination-digit rule, bit-identical to the pre-policy fabric) or
  /// "adaptive" (minimal-adaptive over candidate links by remaining
  /// credits, with bounded deflection when every candidate is starved).
  std::string route = "deterministic";
  /// Adaptive only: misroutes a message may absorb before the accounted
  /// `dropped.deflect` path reclaims it (livelock protection).  0 disables
  /// deflection (starved messages wait on their best candidate link).
  std::size_t deflect_max = 0;
  std::size_t fault_hop = 0;  ///< hop whose plan receives node.faults

  /// Throws ContractViolation naming the offending field (FabricSpec.hops,
  /// FabricSpec.radix, ...) for every constraint the wiring or the routing
  /// policy would violate.  Compiles nothing: the node's family and shape
  /// are checked when FabricSim builds the node switch.
  void validate() const;

  /// The switch spec hop `hop` routes: `node` with the fault list kept only
  /// at `fault_hop` (every other hop routes the healthy plan).
  SwitchSpec node_spec_at(std::size_t hop) const;

  /// Stable FNV-1a fingerprint over EVERY spec field: the node switch's own
  /// digest, the wiring shape, flow control, allocator and route policy
  /// strings (length-prefixed), deflection cap, and fault hop.  Pinned by a
  /// golden test (test_fabric_spec.cpp) so it cannot silently drift.
  std::uint64_t digest() const;
};

}  // namespace pcs

namespace pcs::fabric {

/// Fabric code predates the promotion to pcs:: and names the spec
/// unqualified; keep that spelling valid.
using ::pcs::FabricSpec;

}  // namespace pcs::fabric
