// pcs::FabricSpec is the public declarative fabric description and its
// digest() keys serving-daemon campaign replies (the fabric analogue of the
// SwitchSpec plan-cache key).  The golden values pin the byte layout: a
// failure here means "you changed the digest algorithm", which strands
// every persisted key -- bump deliberately, not by accident.  validate()
// must name the offending field so daemon error replies are actionable.
#include "fabric/fabric_spec.hpp"

#include <gtest/gtest.h>

#include <string>

#include "fabric/make_fabric.hpp"
#include "util/assert.hpp"

namespace pcs {
namespace {

FabricSpec base_spec() {
  FabricSpec spec;  // omega, hops 3, radix 2, rr, deterministic
  spec.node.family = "columnsort";
  spec.node.n = 64;
  spec.node.m = 32;
  return spec;
}

TEST(FabricSpecDigest, GoldenValuesArePinned) {
  // Computed once from the FNV-1a layout (node digest, topology byte, hops,
  // radix, credits, length-prefixed alloc + route, deflect_max, fault_hop);
  // pinned forever.
  EXPECT_EQ(base_spec().digest(), 0x7dfec259cfa8fb77ull);

  FabricSpec ft = base_spec();
  ft.topology = fabric::Topology::kFatTree;
  ft.alloc = "islip";
  ft.route = "adaptive";
  ft.deflect_max = 3;
  EXPECT_EQ(ft.digest(), 0x7defa472f6d95a61ull);

  FabricSpec faulted = base_spec();
  faulted.node.faults.push_back(plan::ChipFault{1, 0});
  faulted.fault_hop = 1;
  EXPECT_EQ(faulted.digest(), 0x5979772a04202dcaull);
}

TEST(FabricSpecDigest, StableAcrossCalls) {
  const FabricSpec spec = base_spec();
  EXPECT_EQ(spec.digest(), spec.digest());
}

TEST(FabricSpecDigest, EveryFieldFeedsTheDigest) {
  const std::uint64_t base = base_spec().digest();

  FabricSpec s = base_spec();
  s.topology = fabric::Topology::kButterfly;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.hops = 4;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.radix = 4;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.node.m = 16;  // node switch digest feeds through
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.node.faults.push_back(plan::ChipFault{0, 1});
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.credits = 16;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.alloc = "islip";
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.route = "adaptive";
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.deflect_max = 1;
  EXPECT_NE(s.digest(), base);

  s = base_spec();
  s.fault_hop = 2;
  EXPECT_NE(s.digest(), base);
}

/// validate() must throw ContractViolation whose message names the field,
/// so a daemon reply carrying e.what() tells the tenant what to fix.
void expect_names_field(const FabricSpec& spec, const std::string& field) {
  try {
    spec.validate();
    FAIL() << "expected ContractViolation naming " << field;
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message '" << e.what() << "' does not name " << field;
  }
}

TEST(FabricSpecValidate, NamesTheOffendingField) {
  FabricSpec s = base_spec();
  s.hops = 0;
  expect_names_field(s, "FabricSpec.hops");

  s = base_spec();
  s.radix = 0;
  expect_names_field(s, "FabricSpec.radix");

  s = base_spec();
  s.topology = fabric::Topology::kSingle;  // needs hops == 1
  expect_names_field(s, "FabricSpec.hops");

  s = base_spec();
  s.topology = fabric::Topology::kFatTree;
  s.hops = 2;  // fat-tree is the fixed 3-hop shape
  expect_names_field(s, "FabricSpec.hops");

  s = base_spec();
  s.node.n = 63;  // not divisible by radix
  expect_names_field(s, "FabricSpec.node.n");

  s = base_spec();
  s.node.m = 31;
  expect_names_field(s, "FabricSpec.node.m");

  s = base_spec();
  s.credits = 0;
  expect_names_field(s, "FabricSpec.credits");

  s = base_spec();
  s.fault_hop = 3;  // hops = 3 -> max hop index 2
  expect_names_field(s, "FabricSpec.fault_hop");

  s = base_spec();
  s.route = "random";
  expect_names_field(s, "FabricSpec.route");

  s = base_spec();
  s.deflect_max = 2;  // deterministic never deflects
  expect_names_field(s, "FabricSpec.deflect_max");
}

TEST(FabricSpecValidate, AcceptsEveryShippedConfiguration) {
  EXPECT_NO_THROW(base_spec().validate());

  FabricSpec s = base_spec();
  s.route = "adaptive";
  s.deflect_max = 4;
  EXPECT_NO_THROW(s.validate());

  s = base_spec();
  s.topology = fabric::Topology::kSingle;
  s.hops = 1;
  s.radix = 4;
  EXPECT_NO_THROW(s.validate());
}

TEST(FabricSpecNodeAt, FaultsLandOnTheFaultHopOnly) {
  FabricSpec s = base_spec();
  s.node.faults.push_back(plan::ChipFault{1, 0});
  s.fault_hop = 1;
  EXPECT_TRUE(s.node_spec_at(0).faults.empty());
  ASSERT_EQ(s.node_spec_at(1).faults.size(), 1u);
  EXPECT_EQ(s.node_spec_at(1).faults[0].stage, 1u);
  EXPECT_TRUE(s.node_spec_at(2).faults.empty());
  EXPECT_THROW(s.node_spec_at(3), ContractViolation);
}

TEST(MakeFabric, RejectsInvalidSpecsBeforeBuildingAnything) {
  FabricSpec s = base_spec();
  s.node.family = "hyper";  // no plan -> not a fabric node
  fabric::FabricOptions opts;
  EXPECT_THROW(
      make_fabric(s, opts, [](std::size_t) {
        return std::unique_ptr<traffic::TrafficSource>();
      }),
      ContractViolation);
}

}  // namespace
}  // namespace pcs
