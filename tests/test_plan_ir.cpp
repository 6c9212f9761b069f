// The staged-plan IR itself: per-family structure, the tallies the cost
// model and chip_planner read, golden structural digests, and validation.
//
// The golden digests pin the exact wiring each compiler emits.  They only
// change when a compiler's output changes -- which is exactly the event the
// bit-for-bit identity constraint wants surfaced in review, since every
// route in the library flows through these plans.
#include "plan/compile.hpp"

#include <gtest/gtest.h>

#include "sortnet/columnsort.hpp"
#include "sortnet/revsort.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"

namespace pcs::plan {
namespace {

TEST(PlanIR, RevsortStructure) {
  const SwitchPlan p = compile_revsort_plan(256, 128);
  p.validate();
  EXPECT_EQ(p.family, PlanFamily::kRevsort);
  EXPECT_EQ(p.name, "revsort(256,128)");
  EXPECT_EQ(p.n, 256u);
  EXPECT_EQ(p.m, 128u);
  EXPECT_FALSE(p.fully_sorting);
  EXPECT_EQ(p.epsilon, sortnet::algorithm1_dirty_row_bound(16) * 16);
  ASSERT_EQ(p.stages.size(), 3u);
  for (const PlanStage& st : p.stages) {
    EXPECT_EQ(st.chips, 16u);
    EXPECT_EQ(st.width, 16u);
    EXPECT_EQ(st.in_src.size(), 256u);
    EXPECT_FALSE(st.any_dead());
  }
  // Only the row stage carries the barrel shifters (Figure 4).
  EXPECT_FALSE(p.stages[0].has_shifter);
  EXPECT_TRUE(p.stages[1].has_shifter);
  EXPECT_FALSE(p.stages[2].has_shifter);
  EXPECT_EQ(p.fast_path, FastPathKind::kRevsortCount);
  EXPECT_EQ(p.fp_side, 16u);
  ASSERT_EQ(p.fp_rev.size(), 16u);
  EXPECT_EQ(p.fp_rev[1], 8u);  // rev of 0001 over 4 bits
  EXPECT_EQ(p.readout.size(), 256u);
  EXPECT_TRUE(p.safety_stages.empty());
}

TEST(PlanIR, ColumnsortStructure) {
  const SwitchPlan p = compile_columnsort_plan(64, 8, 256);
  p.validate();
  EXPECT_EQ(p.family, PlanFamily::kColumnsort);
  EXPECT_EQ(p.name, "columnsort(r=64,s=8,m=256)");
  EXPECT_EQ(p.epsilon, sortnet::algorithm2_epsilon_bound(8));
  ASSERT_EQ(p.stages.size(), 2u);
  for (const PlanStage& st : p.stages) {
    EXPECT_EQ(st.chips, 8u);
    EXPECT_EQ(st.width, 64u);
    EXPECT_FALSE(st.has_shifter);
  }
  EXPECT_EQ(p.fast_path, FastPathKind::kColumnsortCount);
  EXPECT_EQ(p.fp_r, 64u);
  EXPECT_EQ(p.fp_s, 8u);
}

TEST(PlanIR, MultipassAndFullSortStructure) {
  const SwitchPlan mp =
      compile_multipass_plan(16, 4, 3, 32, ReshapeSchedule::kAlternating);
  mp.validate();
  EXPECT_EQ(mp.family, PlanFamily::kMultipass);
  EXPECT_EQ(mp.stages.size(), 4u);  // d passes + the final sort
  EXPECT_EQ(mp.fast_path, FastPathKind::kNone);

  const SwitchPlan fr = compile_full_revsort_plan(64);
  fr.validate();
  EXPECT_EQ(fr.family, PlanFamily::kFullRevsort);
  EXPECT_TRUE(fr.fully_sorting);
  EXPECT_EQ(fr.epsilon, 0u);
  const std::size_t reps = sortnet::full_revsort_repetitions(8);
  EXPECT_EQ(fr.stages.size(), 2 * reps + 8);
  EXPECT_EQ(fr.safety_stages.size(), 3u);
  EXPECT_GE(fr.safety_limit, 1u);

  const SwitchPlan fc = compile_full_columnsort_plan(32, 4);
  fc.validate();
  EXPECT_EQ(fc.family, PlanFamily::kFullColumnsort);
  EXPECT_TRUE(fc.fully_sorting);
  ASSERT_EQ(fc.stages.size(), 4u);
  // The shift stage is the library's one non-bijective link: kFeedPad wires.
  bool saw_pad = false;
  for (std::int32_t src : fc.stages[3].in_src) saw_pad |= src == kFeedPad;
  EXPECT_TRUE(saw_pad);
}

TEST(PlanIR, HyperIsOneChipOneStage) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
    const SwitchPlan p = compile_hyper_plan(n, n == 1 ? 1 : n - 1);
    p.validate();
    EXPECT_EQ(p.family, PlanFamily::kHyper);
    EXPECT_EQ(p.name, "hyperconcentrator(" + std::to_string(n) + "," +
                          std::to_string(p.m) + ")");
    EXPECT_TRUE(p.fully_sorting);
    EXPECT_EQ(p.epsilon, 0u);
    ASSERT_EQ(p.stages.size(), 1u);
    EXPECT_EQ(p.stages[0].chips, 1u);
    EXPECT_EQ(p.stages[0].width, n);
    EXPECT_FALSE(p.stages[0].has_shifter);
    for (std::size_t w = 0; w < n; ++w) {
      EXPECT_EQ(p.stages[0].in_src[w], static_cast<std::int32_t>(w));
      EXPECT_EQ(p.readout[w], w);
    }
    EXPECT_EQ(p.fast_path, FastPathKind::kHyperScan);
  }
  EXPECT_THROW(compile_hyper_plan(0, 1), pcs::ContractViolation);
  EXPECT_THROW(compile_hyper_plan(8, 0), pcs::ContractViolation);
  EXPECT_THROW(compile_hyper_plan(8, 9), pcs::ContractViolation);
}

TEST(PlanIR, TalliesMatchThePaperFormulas) {
  // Revsort (Section 4): v chips per stage, shifters on the row stage,
  // area 2n^2 + 3v*v^2, volume 4vn.
  const std::size_t n = 256, v = 16;
  const SwitchPlan p = compile_revsort_plan(n, 128);
  EXPECT_EQ(p.chip_passes(), 3u);
  EXPECT_EQ(p.board_count(), 3 * v);
  EXPECT_EQ(p.shifter_count(), v);
  EXPECT_EQ(p.chip_count(), 3 * v + v);
  EXPECT_EQ(p.max_pins_per_chip(), 2 * v + 4);  // + lg v shift bits
  EXPECT_EQ(p.area_2d(), 2 * n * n + 3 * v * v * v);
  EXPECT_EQ(p.volume_3d(), 4 * v * n);

  // Columnsort (Section 5): s chips of r wires per stage, area
  // n^2 + 2s*r^2, volume 2s*r^2 + s^2*(r/s)^2.
  const std::size_t r = 64, s = 8;
  const SwitchPlan c = compile_columnsort_plan(r, s, r * s);
  EXPECT_EQ(c.chip_passes(), 2u);
  EXPECT_EQ(c.chip_count(), 2 * s);
  EXPECT_EQ(c.shifter_count(), 0u);
  EXPECT_EQ(c.board_types(), 1u);  // one board design, reused
  EXPECT_EQ(c.max_pins_per_chip(), 2 * r);
  EXPECT_EQ(c.area_2d(), (r * s) * (r * s) + 2 * s * r * r);
  EXPECT_EQ(c.connector_count(), s * s);
  EXPECT_EQ(c.volume_3d(), 2 * s * r * r + s * s * (r / s) * (r / s));
}

// The chip inventory each family's bill of materials listed before the plan
// tallies replaced it, over the shapes the family tests build: w-wide
// hyperconcentrator chips, barrel shifters, and the widest chip's pins.
// The constants were recorded from the per-family bill_of_materials()
// methods, checked against these tallies, before those methods went.
struct InventoryRow {
  SwitchSpec spec;
  std::size_t hyper_chips, shifters, max_pins;
};

std::vector<InventoryRow> inventory_rows() {
  std::vector<InventoryRow> rows;
  const auto add = [&rows](SwitchSpec spec, std::size_t hyper,
                           std::size_t shifters, std::size_t pins) {
    rows.push_back(InventoryRow{std::move(spec), hyper, shifters, pins});
  };
  // Revsort: 3 sqrt(n) chips of 2 sqrt(n) pins, sqrt(n) shifters adding
  // ceil(lg sqrt(n)) hardwired control pins.
  add({"revsort", 4}, 6, 2, 5);
  add({"revsort", 16}, 12, 4, 10);
  add({"revsort", 64}, 24, 8, 19);
  add({"revsort", 256}, 48, 16, 36);
  add({"revsort", 1024}, 96, 32, 69);
  add({"revsort", 4096}, 192, 64, 134);
  // Columnsort: 2s chips of 2r pins.
  const std::size_t shapes[][3] = {
      {4, 2, 4}, {16, 4, 8}, {64, 2, 4}, {64, 8, 16}, {256, 16, 32}, {32, 4, 8}};
  for (const auto& [r, s, hyper] : shapes) {
    SwitchSpec spec{"columnsort"};
    spec.r = r;
    spec.s = s;
    add(spec, hyper, 0, 2 * r);
  }
  // Multipass: (passes + 1) s chips of 2r pins, either schedule.
  for (std::size_t d = 1; d <= 4; ++d) {
    for (ReshapeSchedule sch :
         {ReshapeSchedule::kSame, ReshapeSchedule::kAlternating}) {
      SwitchSpec spec{"multipass"};
      spec.r = 64;
      spec.s = 8;
      spec.passes = d;
      spec.schedule = sch;
      add(spec, (d + 1) * 8, 0, 128);
    }
  }
  // Full Revsort: (2 reps + 8) sqrt(n) chips, reps sqrt(n) shifters.
  add({"full-revsort", 4}, 20, 2, 5);
  add({"full-revsort", 16}, 40, 4, 10);
  add({"full-revsort", 64}, 96, 16, 19);
  add({"full-revsort", 256}, 192, 32, 36);
  add({"full-revsort", 1024}, 448, 96, 69);
  add({"full-revsort", 4096}, 896, 192, 134);
  // Full Columnsort: 3s + (s + 1) chips of 2r pins.
  const std::size_t full_shapes[][3] = {
      {8, 2, 9}, {32, 4, 17}, {64, 4, 17}, {128, 8, 33}, {18, 3, 13}};
  for (const auto& [r, s, hyper] : full_shapes) {
    SwitchSpec spec{"full-columnsort"};
    spec.r = r;
    spec.s = s;
    add(spec, hyper, 0, 2 * r);
  }
  // Section 1's single chip: one n-wide hyperconcentrator, 2n pins.
  for (std::size_t n : {1, 7, 64, 100, 256, 4096}) add({"hyper", n}, 1, 0, 2 * n);
  return rows;
}

TEST(PlanTallies, MatchFamilyBillsOfMaterials) {
  for (const InventoryRow& row : inventory_rows()) {
    SCOPED_TRACE(row.spec.family + " n=" + std::to_string(row.spec.n) +
                 " r=" + std::to_string(row.spec.r) +
                 " passes=" + std::to_string(row.spec.passes));
    const SwitchPlan p = make_switch_plan(row.spec);
    EXPECT_EQ(p.board_count(), row.hyper_chips);
    EXPECT_EQ(p.shifter_count(), row.shifters);
    EXPECT_EQ(p.chip_count(), row.hyper_chips + row.shifters);
    EXPECT_EQ(p.max_pins_per_chip(), row.max_pins);
  }
}

TEST(PlanIR, GoldenDigests) {
  // Structural fingerprints of the compiled wiring.  A change here means
  // the switch hardware itself changed -- update only with a differential
  // run proving route identity (tests/test_plan_differential.cpp).
  EXPECT_EQ(compile_revsort_plan(256, 128).digest(), 0xcc4caff900185987ull);
  EXPECT_EQ(compile_revsort_plan(1024, 1024).digest(), 0x010dc0aa78764110ull);
  EXPECT_EQ(compile_columnsort_plan(64, 8, 256).digest(), 0x6e8451b8410cba90ull);
  EXPECT_EQ(compile_columnsort_plan_beta(512, 0.75, 256).digest(),
            0x99be1c91a7661604ull);
  EXPECT_EQ(
      compile_multipass_plan(16, 4, 3, 32, ReshapeSchedule::kAlternating).digest(),
      0x103fea2bc880aff0ull);
  EXPECT_EQ(compile_multipass_plan(16, 4, 2, 64, ReshapeSchedule::kSame).digest(),
            0xab83e061583b8049ull);
  EXPECT_EQ(compile_full_revsort_plan(64).digest(), 0x569aab3746ab4ee2ull);
  EXPECT_EQ(compile_full_columnsort_plan(32, 4).digest(), 0x79d1fc849b7af6b5ull);
  EXPECT_EQ(compile_hyper_plan(256, 192).digest(), 0x10b8ff28b157fc50ull);
}

TEST(PlanIR, DigestSeesShapeWiringAndFaults) {
  const std::uint64_t base = compile_revsort_plan(64, 64).digest();
  EXPECT_NE(base, compile_revsort_plan(64, 32).digest());
  EXPECT_NE(base, compile_columnsort_plan(8, 8, 64).digest());

  SwitchPlan p = compile_revsort_plan(64, 64);
  apply_chip_faults(p, {ChipFault{1, 3}});
  EXPECT_EQ(p.digest(), 0x185c92e9f766bde9ull);
  EXPECT_NE(p.digest(), base);
}

TEST(PlanIR, SummaryNamesEveryStage) {
  const SwitchPlan p = compile_revsort_plan(64, 64);
  const std::string s = p.summary();
  EXPECT_NE(s.find("revsort(64,64)"), std::string::npos);
  EXPECT_NE(s.find("stage"), std::string::npos);
  // One line per stage plus header and tallies.
  std::size_t lines = 0;
  for (char ch : s) lines += ch == '\n';
  EXPECT_GE(lines, p.stages.size());
}

TEST(PlanIR, ValidateRejectsMalformedPlans) {
  {
    SwitchPlan p = compile_revsort_plan(64, 64);
    p.readout[0] = 1000;  // beyond the last stage's wires
    EXPECT_THROW(p.validate(), pcs::ContractViolation);
  }
  {
    SwitchPlan p = compile_revsort_plan(64, 64);
    p.stages[1].in_src[5] = 64;  // beyond the previous stage's wires
    EXPECT_THROW(p.validate(), pcs::ContractViolation);
  }
  {
    SwitchPlan p = compile_revsort_plan(64, 64);
    p.stages[2].dead.resize(3);  // dead flags must cover every chip
    EXPECT_THROW(p.validate(), pcs::ContractViolation);
  }
}

}  // namespace
}  // namespace pcs::plan
