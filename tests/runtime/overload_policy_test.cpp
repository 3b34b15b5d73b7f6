// OverloadGovernor escalation is a pure function of its policy — no clock,
// no threads — so the spin -> backoff -> shed ladder is pinned exactly.
#include "runtime/overload_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace dart::runtime {
namespace {

TEST(OverloadPolicy, SpinsThroughTheBudgetFirst) {
  OverloadPolicy policy;
  policy.spin_budget = 5;
  OverloadGovernor governor(policy);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(governor.next().action, OverloadAction::kSpin) << i;
  }
  EXPECT_EQ(governor.next().action, OverloadAction::kSleep);
  EXPECT_EQ(governor.waited_ns(), policy.backoff_initial_ns);
}

TEST(OverloadPolicy, BackoffDoublesUpToTheCeiling) {
  OverloadPolicy policy;
  policy.spin_budget = 0;
  policy.backoff_initial_ns = 1'000;
  policy.backoff_max_ns = 8'000;
  policy.shed_deadline_ns = 1'000'000'000;
  OverloadGovernor governor(policy);
  std::uint64_t expected[] = {1'000, 2'000, 4'000, 8'000, 8'000, 8'000};
  for (std::uint64_t want : expected) {
    const OverloadDecision decision = governor.next();
    ASSERT_EQ(decision.action, OverloadAction::kSleep);
    EXPECT_EQ(decision.sleep_ns, want);
  }
}

TEST(OverloadPolicy, ShedsExactlyAtTheDeadline) {
  OverloadPolicy policy;
  policy.spin_budget = 0;
  policy.backoff_initial_ns = 4'000;
  policy.backoff_max_ns = 4'000;
  policy.shed_deadline_ns = 10'000;
  OverloadGovernor governor(policy);
  // 4k + 4k + 2k (clamped to the deadline's remainder) = exactly 10k.
  EXPECT_EQ(governor.next().sleep_ns, 4'000U);
  EXPECT_EQ(governor.next().sleep_ns, 4'000U);
  EXPECT_EQ(governor.next().sleep_ns, 2'000U);
  EXPECT_EQ(governor.waited_ns(), 10'000U);
  EXPECT_EQ(governor.next().action, OverloadAction::kShed);
  // Shed is sticky.
  EXPECT_EQ(governor.next().action, OverloadAction::kShed);
}

TEST(OverloadPolicy, ZeroDeadlineShedsImmediatelyAfterSpin) {
  OverloadPolicy policy;
  policy.spin_budget = 2;
  policy.shed_deadline_ns = 0;
  OverloadGovernor governor(policy);
  EXPECT_EQ(governor.next().action, OverloadAction::kSpin);
  EXPECT_EQ(governor.next().action, OverloadAction::kSpin);
  EXPECT_EQ(governor.next().action, OverloadAction::kShed);
}

TEST(OverloadPolicy, DisabledSheddingNeverSheds) {
  OverloadPolicy policy;
  policy.spin_budget = 0;
  policy.backoff_initial_ns = 1'000;
  policy.backoff_max_ns = 1'000;
  policy.shed_deadline_ns = UINT64_MAX;  // waits forever
  OverloadGovernor governor(policy);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_EQ(governor.next().action, OverloadAction::kSleep);
  }
  EXPECT_EQ(governor.waited_ns(), 10'000U * 1'000U);
}

TEST(OverloadPolicy, DefaultsNeverShedAHealthyWorkerQuickly) {
  // The default deadline is seconds, not microseconds: a worker that makes
  // any progress within 2 s keeps its batch.
  OverloadPolicy policy;
  EXPECT_GE(policy.shed_deadline_ns, 1'000'000'000U);
  OverloadGovernor governor(policy);
  std::uint64_t slept = 0;
  for (;;) {
    const OverloadDecision decision = governor.next();
    if (decision.action == OverloadAction::kShed) break;
    if (decision.action == OverloadAction::kSleep) slept += decision.sleep_ns;
  }
  EXPECT_EQ(slept, policy.shed_deadline_ns);
}

}  // namespace
}  // namespace dart::runtime
