// Golden-value regression for the audited estimate_usage() accounting and
// edge-budget coverage for validate_layout.
//
// The audit (this PR) fixed two accounting bugs:
//   * both_legs added its extra hash unit *after* the crossbar estimate
//     was derived from the hash count, so dual-leg crossbar usage was
//     under-counted by one;
//   * the stage model divided the PT stage count by the component split
//     (ceil(pt_stages / 3) component groups), under-counting multi-stage
//     PTs — each PT stage is its own logical register spread over 3
//     sequentially-dependent component tables, so PT consumes
//     3 * pt_stages stages (Section 4, Table 1).
// The corrected numbers are pinned exactly here so future edits to the
// model are deliberate.
#include <gtest/gtest.h>

#include "dataplane/resource_model.hpp"
#include "dataplane/verify/static_checks.hpp"

namespace dart::dataplane {
namespace {

TEST(ResourceGolden, DefaultLayoutPaperConfig) {
  const ResourceUsage usage = estimate_usage(DartLayout{});
  // SRAM: 65536 * 13 (RT) + 131072 * 16 (PT) + 15851 * 2 (payload LUT).
  EXPECT_EQ(usage.sram_bytes, 2'980'822ULL);
  // TCAM: 1024 flow rules * 24 B (12 B key + 12 B mask).
  EXPECT_EQ(usage.tcam_bytes, 24'576ULL);
  // RT index + flow signature + 1 PT stage index + PT key fold.
  EXPECT_EQ(usage.hash_units, 4U);
  // 3 RT components + 3 PT components + 6 fixed tables.
  EXPECT_EQ(usage.logical_tables, 12U);
  EXPECT_EQ(usage.input_crossbars, 16U);
  // classification/report (2) + RT components (3) + PT components (3).
  EXPECT_EQ(usage.stages_used, 8U);
}

TEST(ResourceGolden, FourStagePacketTracker) {
  DartLayout layout;
  layout.pt_stages = 4;
  const ResourceUsage usage = estimate_usage(layout);
  EXPECT_EQ(usage.hash_units, 7U);          // 2 + 4 + 1
  EXPECT_EQ(usage.logical_tables, 21U);     // 3 + 3*4 + 6
  EXPECT_EQ(usage.input_crossbars, 28U);
  EXPECT_EQ(usage.stages_used, 17U);        // 2 + 3 + 3*4 — needs the split
  EXPECT_GT(usage.stages_used, tofino1_profile().stages);
}

TEST(ResourceGolden, BothLegsCountsHashBeforeCrossbars) {
  DartLayout layout;
  DartLayout dual = layout;
  dual.both_legs = true;
  const ResourceUsage one = estimate_usage(layout);
  const ResourceUsage two = estimate_usage(dual);
  // The dual-leg role re-hash costs one hash unit AND its crossbar input
  // (the pre-audit model missed the latter).
  EXPECT_EQ(two.hash_units, one.hash_units + 1);
  EXPECT_EQ(two.input_crossbars, one.input_crossbars + 1);
  // Memory, tables, and stages are reused via recirculation: unchanged.
  EXPECT_EQ(two.sram_bytes, one.sram_bytes);
  EXPECT_EQ(two.logical_tables, one.logical_tables);
  EXPECT_EQ(two.stages_used, one.stages_used);
}

TEST(ResourceGolden, ConstexprMirrorsMatchRuntimeModel) {
  // static_checks.hpp mirrors tofino1_profile()'s budgets as constexpr
  // constants for its compile-time assertions; any drift is a bug.
  const TargetProfile t1 = tofino1_profile();
  EXPECT_EQ(verify::kTofino1Stages, t1.stages);
  EXPECT_EQ(verify::kTofino1SramBytes, t1.sram_bytes);
  EXPECT_EQ(verify::kTofino1HashUnitsPerStage, t1.hash_units_per_stage);
  EXPECT_EQ(verify::kSaluWidthBits, t1.salu_width_bits);
}

// ---------------------------------------------------------------------------
// validate_layout edge budgets: exactly-at-budget fits, one-over fails,
// and each failure names its resource.

TargetProfile exact_budget_profile(const DartLayout& layout) {
  const ResourceUsage usage = estimate_usage(layout);
  TargetProfile p;
  p.name = "exact";
  p.sram_bytes = usage.sram_bytes;
  p.tcam_bytes = usage.tcam_bytes;
  p.hash_units = usage.hash_units;
  p.logical_tables = usage.logical_tables;
  p.input_crossbars = usage.input_crossbars;
  p.stages = usage.stages_used;
  return p;
}

TEST(ValidateLayout, ExactlyAtEveryBudgetFits) {
  const DartLayout layout;
  EXPECT_TRUE(validate_layout(layout, exact_budget_profile(layout)).empty());
}

TEST(ValidateLayout, OneByteOverSramFails) {
  const DartLayout layout;
  TargetProfile target = exact_budget_profile(layout);
  target.sram_bytes -= 1;
  const auto problems = validate_layout(layout, target);
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("SRAM bytes"), std::string::npos);
}

TEST(ValidateLayout, OneByteOverTcamFails) {
  const DartLayout layout;
  TargetProfile target = exact_budget_profile(layout);
  target.tcam_bytes -= 1;
  const auto problems = validate_layout(layout, target);
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("TCAM bytes"), std::string::npos);
}

TEST(ValidateLayout, OneHashUnitShortFails) {
  const DartLayout layout;
  TargetProfile target = exact_budget_profile(layout);
  target.hash_units -= 1;
  const auto problems = validate_layout(layout, target);
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("hash units"), std::string::npos);
}

TEST(ValidateLayout, OneLogicalTableShortFails) {
  const DartLayout layout;
  TargetProfile target = exact_budget_profile(layout);
  target.logical_tables -= 1;
  const auto problems = validate_layout(layout, target);
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("logical tables"), std::string::npos);
}

TEST(ValidateLayout, OneCrossbarShortFails) {
  const DartLayout layout;
  TargetProfile target = exact_budget_profile(layout);
  target.input_crossbars -= 1;
  const auto problems = validate_layout(layout, target);
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("input crossbars"), std::string::npos);
}

TEST(ValidateLayout, OneStageShortFails) {
  const DartLayout layout;
  TargetProfile target = exact_budget_profile(layout);
  target.stages -= 1;
  const auto problems = validate_layout(layout, target);
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("pipeline stages"), std::string::npos);
}

TEST(ValidateLayout, EveryExceededBudgetIsReported) {
  const DartLayout layout;
  TargetProfile target;  // all-zero budgets except defaults
  target.name = "empty";
  target.stages = 1;
  target.sram_bytes = 0;
  target.tcam_bytes = 0;
  target.hash_units = 0;
  target.logical_tables = 0;
  target.input_crossbars = 0;
  const auto problems = validate_layout(layout, target);
  EXPECT_EQ(problems.size(), 6U);  // one message per exhausted resource
}

}  // namespace
}  // namespace dart::dataplane
