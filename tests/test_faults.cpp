// Chip-fault semantics through the plan IR: compile a family's plan, mark
// chips dead with plan::apply_chip_faults, run it behind plan::PlanSwitch.
// These tests preserve the loss-bound and dedupe guarantees the dedicated
// Faulty* switch classes used to provide.

#include <gtest/gtest.h>

#include "plan/compile.hpp"
#include "plan/plan_switch.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pcs::plan {
namespace {

PlanSwitch faulty_revsort(std::size_t n, std::size_t m,
                          std::vector<ChipFault> faults) {
  SwitchPlan p = compile_revsort_plan(n, m);
  apply_chip_faults(p, std::move(faults));
  return PlanSwitch(std::move(p));
}

PlanSwitch faulty_columnsort(std::size_t r, std::size_t s, std::size_t m,
                             std::vector<ChipFault> faults) {
  SwitchPlan p = compile_columnsort_plan(r, s, m);
  apply_chip_faults(p, std::move(faults));
  return PlanSwitch(std::move(p));
}

TEST(Faults, NoFaultsEqualsHealthySwitch) {
  const std::size_t n = 256;
  PlanSwitch faulty = faulty_revsort(n, n, {});
  const plan::PlanSwitch healthy(make_switch_plan({"revsort", n, n}));
  Rng rng(310);
  for (int t = 0; t < 20; ++t) {
    BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
    EXPECT_EQ(faulty.route(valid).output_of_input,
              healthy.route(valid).output_of_input);
  }
}

TEST(Faults, FaultCoordinatesValidated) {
  EXPECT_THROW(faulty_revsort(64, 64, {ChipFault{3, 0}}),
               pcs::ContractViolation);
  EXPECT_THROW(faulty_revsort(64, 64, {ChipFault{0, 8}}),
               pcs::ContractViolation);
  EXPECT_THROW(faulty_columnsort(16, 4, 64, {ChipFault{2, 0}}),
               pcs::ContractViolation);
}

TEST(Faults, DeadStage0ChipLosesExactlyItsMessages) {
  // Stage-0 chip c handles the inputs attached chip-major to column c:
  // input wires [c*side, (c+1)*side).
  const std::size_t n = 64, side = 8, dead = 3;
  PlanSwitch sw = faulty_revsort(n, n, {ChipFault{0, dead}});
  Rng rng(311);
  for (int t = 0; t < 25; ++t) {
    BitVec valid = rng.bernoulli_bits(n, 0.5);
    sw::SwitchRouting r = sw.route(valid);
    EXPECT_TRUE(r.is_partial_injection());
    std::size_t k = valid.count();
    std::size_t on_dead_chip = 0;
    for (std::size_t i = dead * side; i < (dead + 1) * side; ++i) {
      on_dead_chip += valid.get(i);
    }
    EXPECT_EQ(r.routed_count(), k - on_dead_chip) << "t=" << t;
    // Every lost message came from the dead chip.
    for (std::size_t i = 0; i < n; ++i) {
      if (valid.get(i) && r.output_of_input[i] < 0) {
        EXPECT_GE(i, dead * side);
        EXPECT_LT(i, (dead + 1) * side);
      }
    }
  }
}

TEST(Faults, LossBoundedByChipWidthPerFault) {
  const std::size_t n = 256;
  Rng rng(312);
  for (std::size_t stage = 0; stage < 3; ++stage) {
    PlanSwitch sw =
        faulty_revsort(n, n, {ChipFault{stage, 5}, ChipFault{stage, 9}});
    for (int t = 0; t < 15; ++t) {
      BitVec valid = rng.bernoulli_bits(n, rng.uniform01());
      sw::SwitchRouting r = sw.route(valid);
      EXPECT_TRUE(r.is_partial_injection());
      EXPECT_GE(r.routed_count() + sw.max_fault_loss(), valid.count())
          << "stage=" << stage << " t=" << t;
    }
  }
}

TEST(Faults, ColumnsortDeadChipsDegradeGracefully) {
  const std::size_t r = 64, s = 8, n = r * s;
  Rng rng(313);
  PlanSwitch sw = faulty_columnsort(r, s, n, {ChipFault{0, 2}, ChipFault{1, 6}});
  for (int t = 0; t < 20; ++t) {
    BitVec valid = rng.bernoulli_bits(n, 0.5);
    sw::SwitchRouting routing = sw.route(valid);
    EXPECT_TRUE(routing.is_partial_injection());
    EXPECT_GE(routing.routed_count() + sw.max_fault_loss(), valid.count());
  }
}

TEST(Faults, FaultySwitchStillFeedsClockedSimSafely) {
  // Downstream machinery must keep working: lost messages surface as
  // congestion, not corruption.
  PlanSwitch sw = faulty_revsort(64, 48, {ChipFault{1, 2}});
  Rng rng(314);
  BitVec valid = rng.bernoulli_bits(64, 0.4);
  sw::SwitchRouting routing = sw.route(valid);
  EXPECT_TRUE(routing.is_partial_injection());
  std::size_t delivered = routing.routed_count();
  std::size_t lost = valid.count() - delivered;
  EXPECT_LE(lost, valid.count());
}

TEST(Faults, MoreDeadChipsNeverDeliverMore) {
  const std::size_t n = 256;
  Rng rng(315);
  BitVec valid = rng.bernoulli_bits(n, 0.6);
  std::size_t prev = n + 1;
  std::vector<ChipFault> faults;
  for (std::size_t c = 0; c < 6; ++c) {
    PlanSwitch sw = faulty_revsort(n, n, faults);
    std::size_t routed = sw.route(valid).routed_count();
    EXPECT_LE(routed, prev);
    prev = routed;
    faults.push_back(ChipFault{0, c});
  }
}

TEST(Faults, DuplicateFaultsCollapse) {
  // Regression: a chip is either dead or not.  Listing it three times must
  // not triple max_fault_loss() or change the routing.
  const std::vector<ChipFault> dup = {ChipFault{1, 2}, ChipFault{1, 2},
                                      ChipFault{1, 2}};
  PlanSwitch repeated = faulty_revsort(64, 64, dup);
  PlanSwitch once = faulty_revsort(64, 64, {ChipFault{1, 2}});
  EXPECT_EQ(repeated.plan().faults.size(), 1u);
  EXPECT_EQ(repeated.max_fault_loss(), once.max_fault_loss());
  EXPECT_EQ(repeated.max_fault_loss(), 8u);  // one dead side-wide chip
  Rng rng(316);
  for (int t = 0; t < 10; ++t) {
    BitVec valid = rng.bernoulli_bits(64, rng.uniform01());
    EXPECT_EQ(repeated.route(valid).output_of_input,
              once.route(valid).output_of_input);
  }

  PlanSwitch crep = faulty_columnsort(16, 4, 64, {ChipFault{0, 3}, ChipFault{0, 3}});
  EXPECT_EQ(crep.plan().faults.size(), 1u);
  EXPECT_EQ(crep.max_fault_loss(), 16u);  // one dead r-wide chip
  EXPECT_NE(crep.name().find("dead=1"), std::string::npos);
}

TEST(Faults, DistinctFaultsAreKept) {
  // Dedupe must only collapse exact (stage, chip) repeats.
  PlanSwitch sw = faulty_revsort(64, 64,
                                 {ChipFault{1, 2}, ChipFault{0, 2}, ChipFault{1, 3},
                                  ChipFault{1, 2}});
  EXPECT_EQ(sw.plan().faults.size(), 3u);
  EXPECT_EQ(sw.max_fault_loss(), 3 * 8u);
}

TEST(Faults, NamesReportDeadCount) {
  PlanSwitch sw = faulty_revsort(64, 64, {ChipFault{0, 1}, ChipFault{2, 3}});
  EXPECT_NE(sw.name().find("dead=2"), std::string::npos);
  PlanSwitch cw = faulty_columnsort(16, 4, 64, {ChipFault{1, 0}});
  EXPECT_NE(cw.name().find("dead=1"), std::string::npos);
}

TEST(Faults, RewriteClearsFastPathAndGuarantee) {
  SwitchPlan p = compile_revsort_plan(256, 256);
  EXPECT_EQ(p.fast_path, FastPathKind::kRevsortCount);
  apply_chip_faults(p, {ChipFault{2, 0}});
  EXPECT_EQ(p.fast_path, FastPathKind::kNone);
  EXPECT_EQ(p.epsilon, p.n);  // no nearsorting guarantee survives a fault
  EXPECT_EQ(p.max_fault_loss, 16u);
  EXPECT_EQ(p.name, "faulty-revsort(256,256,dead=1)");
}

TEST(Faults, RewriteIsIdempotentAcrossApplications) {
  // Applying the same fault twice (two rewrite calls) must not double the
  // loss bound or re-decorate the name.
  SwitchPlan p = compile_columnsort_plan(16, 4, 64);
  apply_chip_faults(p, {ChipFault{0, 1}});
  const std::size_t loss_once = p.max_fault_loss;
  apply_chip_faults(p, {ChipFault{0, 1}});
  EXPECT_EQ(p.max_fault_loss, loss_once);
  EXPECT_EQ(p.faults.size(), 1u);
  EXPECT_NE(p.name.find("dead=1"), std::string::npos);
  EXPECT_EQ(p.name.find("faulty-faulty"), std::string::npos);
  // A second, distinct fault still accumulates.
  apply_chip_faults(p, {ChipFault{1, 2}});
  EXPECT_EQ(p.faults.size(), 2u);
  EXPECT_EQ(p.max_fault_loss, 2 * loss_once);
  EXPECT_NE(p.name.find("dead=2"), std::string::npos);
}

TEST(Faults, WorksForEveryFamily) {
  // The rewrite is family-agnostic: the full sorters take faults too (their
  // fully_sorting shortcut must drop so batch paths stay honest).
  Rng rng(317);
  SwitchPlan p = compile_full_revsort_plan(64);
  apply_chip_faults(p, {ChipFault{0, 3}});
  EXPECT_FALSE(p.fully_sorting);
  PlanSwitch sw{std::move(p)};
  for (int t = 0; t < 10; ++t) {
    BitVec valid = rng.bernoulli_bits(64, 0.5);
    sw::SwitchRouting r = sw.route(valid);
    EXPECT_TRUE(r.is_partial_injection());
    EXPECT_GE(r.routed_count() + sw.max_fault_loss(), valid.count());
  }
  std::vector<BitVec> batch;
  for (int t = 0; t < 70; ++t) batch.push_back(rng.bernoulli_bits(64, 0.5));
  auto nb = sw.nearsorted_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(nb[i], sw.nearsorted_valid_bits(batch[i])) << "i=" << i;
  }
}

}  // namespace
}  // namespace pcs::plan
