// The plan-analysis pass behind the fused executor: gather classification
// (identity / fixed-stride / general), sentinel remapping of constant
// feeds, and the per-family link shapes the fused kernels rely on.
#include "plan/plan_analysis.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "plan/compile.hpp"
#include "plan/plan_executor.hpp"

namespace pcs::plan {
namespace {

std::vector<std::int32_t> identity_map(std::size_t n) {
  std::vector<std::int32_t> src(n);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<std::int32_t>(i);
  return src;
}

/// src[i*cols + j] = j*rows + i: the CM -> RM read of a rows-by-cols mesh.
std::vector<std::int32_t> stride_map(std::size_t rows, std::size_t cols) {
  std::vector<std::int32_t> src(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      src[i * cols + j] = static_cast<std::int32_t>(j * rows + i);
    }
  }
  return src;
}

TEST(PlanAnalysis, ClassifyGatherIdentity) {
  EXPECT_EQ(classify_gather(identity_map(1)), GatherKind::kIdentity);
  EXPECT_EQ(classify_gather(identity_map(64)), GatherKind::kIdentity);
}

TEST(PlanAnalysis, ClassifyGatherStrideSquareAndRectangular) {
  std::size_t rows = 0, cols = 0;
  EXPECT_EQ(classify_gather(stride_map(16, 16), &rows, &cols),
            GatherKind::kStride);
  EXPECT_EQ(rows, 16u);
  EXPECT_EQ(cols, 16u);
  EXPECT_EQ(classify_gather(stride_map(2, 4), &rows, &cols),
            GatherKind::kStride);
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(cols, 4u);
  EXPECT_EQ(classify_gather(stride_map(64, 8), &rows, &cols),
            GatherKind::kStride);
  EXPECT_EQ(rows, 64u);
  EXPECT_EQ(cols, 8u);
}

TEST(PlanAnalysis, ClassifyGatherGeneral) {
  // A swap breaks both identity and the stride recurrences.
  std::vector<std::int32_t> src = identity_map(8);
  std::swap(src[3], src[6]);
  EXPECT_EQ(classify_gather(src), GatherKind::kGeneral);
  // One wrong entry in an otherwise perfect stride map.
  std::vector<std::int32_t> almost = stride_map(4, 4);
  std::swap(almost[5], almost[10]);
  EXPECT_EQ(classify_gather(almost), GatherKind::kGeneral);
  // Constant feeds are general by definition.
  std::vector<std::int32_t> fed = identity_map(8);
  fed[2] = kFeedIdle;
  EXPECT_EQ(classify_gather(fed), GatherKind::kGeneral);
  fed[2] = kFeedPad;
  EXPECT_EQ(classify_gather(fed), GatherKind::kGeneral);
}

TEST(PlanAnalysis, RevsortLinkShapes) {
  const PlanAnalysis a = analyze_plan(compile_revsort_plan(256, 128));
  ASSERT_EQ(a.links.size(), 3u);
  // Input stage reads the switch inputs in place; the transpose between
  // stages 1 and 2 is the canonical fixed-stride shuffle; the rev-rotate
  // link is a general permutation.
  EXPECT_EQ(a.links[0].kind, GatherKind::kIdentity);
  EXPECT_TRUE(a.links[0].src.empty());
  EXPECT_EQ(a.links[1].kind, GatherKind::kStride);
  EXPECT_EQ(a.links[1].stride_rows, 16u);
  EXPECT_EQ(a.links[1].stride_cols, 16u);
  EXPECT_EQ(a.links[2].kind, GatherKind::kGeneral);
  EXPECT_EQ(a.readout.kind, GatherKind::kStride);
  EXPECT_EQ(a.max_wires, 256u);
  EXPECT_EQ(a.idle_slot, 256u);
  EXPECT_EQ(a.pad_slot, 257u);
  EXPECT_EQ(a.buf_slots, 258u);
  for (const LinkInfo& link : a.links) {
    EXPECT_FALSE(link.has_idle_feeds);
    EXPECT_FALSE(link.has_pad_feeds);
  }
}

TEST(PlanAnalysis, ColumnsortLinkShapes) {
  const PlanAnalysis a = analyze_plan(compile_columnsort_plan(64, 8, 256));
  ASSERT_EQ(a.links.size(), 2u);
  EXPECT_EQ(a.links[0].kind, GatherKind::kIdentity);
  // Stage links hold the *inverse* of the wiring (in_src is "where does
  // wire w read from"), so the CM->RM reshape classifies with the mesh
  // dimensions swapped relative to the readout below.
  EXPECT_EQ(a.links[1].kind, GatherKind::kStride);
  EXPECT_EQ(a.links[1].stride_rows, 8u);
  EXPECT_EQ(a.links[1].stride_cols, 64u);
  EXPECT_EQ(a.readout.kind, GatherKind::kStride);
  EXPECT_EQ(a.readout.stride_rows, 64u);
  EXPECT_EQ(a.readout.stride_cols, 8u);
}

TEST(PlanAnalysis, FullColumnsortPadStageRemapsOntoSentinels) {
  const SwitchPlan plan = compile_full_columnsort_plan(64, 4);
  const PlanAnalysis a = analyze_plan(plan);
  // The widened shift stage has 5 chips of 64 wires: the widest stage in
  // the library, and the only one with constant feeds.
  EXPECT_EQ(a.max_wires, 320u);
  EXPECT_EQ(a.idle_slot, 320u);
  EXPECT_EQ(a.pad_slot, 321u);
  EXPECT_EQ(a.buf_slots, 322u);
  ASSERT_EQ(a.links.size(), plan.stages.size());
  const LinkInfo& pad_link = a.links.back();
  EXPECT_EQ(pad_link.kind, GatherKind::kGeneral);
  EXPECT_TRUE(pad_link.has_pad_feeds);
  EXPECT_TRUE(pad_link.has_idle_feeds);
  ASSERT_EQ(pad_link.src.size(), 320u);
  // Every constant feed sits on its sentinel slot; real sources stay below
  // the upstream width.
  std::size_t pads = 0, idles = 0;
  for (std::size_t w = 0; w < pad_link.src.size(); ++w) {
    const std::int32_t raw = plan.stages.back().in_src[w];
    if (raw == kFeedPad) {
      EXPECT_EQ(pad_link.src[w], a.pad_slot);
      ++pads;
    } else if (raw == kFeedIdle) {
      EXPECT_EQ(pad_link.src[w], a.idle_slot);
      ++idles;
    } else {
      EXPECT_EQ(pad_link.src[w], static_cast<std::uint32_t>(raw));
      EXPECT_LT(pad_link.src[w], 256u);
    }
  }
  EXPECT_GT(pads, 0u);
  EXPECT_GT(idles, 0u);
  // The un-shift readout starts mid-stage, so it is not an identity.
  EXPECT_EQ(a.readout.kind, GatherKind::kGeneral);
}

TEST(PlanAnalysis, FullRevsortReadoutIsIdentity) {
  const PlanAnalysis a = analyze_plan(compile_full_revsort_plan(256));
  EXPECT_EQ(a.readout.kind, GatherKind::kIdentity);
  EXPECT_EQ(a.safety_links.size(), 3u);
}

TEST(PlanAnalysis, SummaryNamesEveryLink) {
  const PlanAnalysis a = analyze_plan(compile_revsort_plan(256, 128));
  const std::string s = a.summary();
  EXPECT_NE(s.find("link 0: identity"), std::string::npos) << s;
  EXPECT_NE(s.find("stride(16x16)"), std::string::npos) << s;
  EXPECT_NE(s.find("readout:"), std::string::npos) << s;
}

}  // namespace
}  // namespace pcs::plan
