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

// -- Episodes: the governor is the shard's stall record ---------------------

OverloadPolicy small_ladder() {
  OverloadPolicy policy;
  policy.spin_budget = 3;
  policy.backoff_initial_ns = 4'000;
  policy.backoff_max_ns = 4'000;
  policy.shed_deadline_ns = 10'000;
  return policy;
}

// Climbs the whole ladder once: spins, 4k + 4k + 2k of sleep, shed.
void climb_to_shed(OverloadGovernor& governor) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(governor.next().action, OverloadAction::kSpin) << i;
  }
  for (const std::uint64_t want : {4'000U, 4'000U, 2'000U}) {
    const OverloadDecision decision = governor.next();
    ASSERT_EQ(decision.action, OverloadAction::kSleep);
    ASSERT_EQ(decision.sleep_ns, want);
  }
  ASSERT_EQ(governor.next().action, OverloadAction::kShed);
}

TEST(OverloadPolicy, EpisodePersistsAcrossBatches) {
  OverloadGovernor governor(small_ladder());
  climb_to_shed(governor);
  // Further batches join the open episode: its backoff is spent for good,
  // so none of them sleeps again.
  for (int batch = 0; batch < 3; ++batch) {
    governor.next_batch();
    OverloadDecision decision;
    do {
      decision = governor.next();
      ASSERT_NE(decision.action, OverloadAction::kSleep) << batch;
    } while (decision.action != OverloadAction::kShed);
    EXPECT_EQ(governor.waited_ns(), 10'000U) << batch;
  }
}

TEST(OverloadPolicy, LaterBatchInAShedEpisodeShedsAfterTheSpinBudget) {
  OverloadGovernor governor(small_ladder());
  climb_to_shed(governor);
  governor.next_batch();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(governor.next().action, OverloadAction::kSpin) << i;
  }
  EXPECT_EQ(governor.next().action, OverloadAction::kShed);

  // With no spin budget it sheds on its first retry.
  OverloadPolicy no_spin = small_ladder();
  no_spin.spin_budget = 0;
  OverloadGovernor eager(no_spin);
  while (eager.next().action != OverloadAction::kShed) {
  }
  eager.next_batch();
  EXPECT_EQ(eager.next().action, OverloadAction::kShed);
}

TEST(OverloadPolicy, LandedPushStartsAFreshLadder) {
  OverloadGovernor governor(small_ladder());
  climb_to_shed(governor);
  governor.end_episode();
  EXPECT_EQ(governor.waited_ns(), 0U);
  climb_to_shed(governor);  // the same ladder, from the first spin

  // Ending an episode part-way resets the backoff too.
  governor.end_episode();
  for (int i = 0; i < 3; ++i) governor.next();
  EXPECT_EQ(governor.next().sleep_ns, 4'000U);
  governor.end_episode();
  for (int i = 0; i < 3; ++i) governor.next();
  EXPECT_EQ(governor.next().sleep_ns, 4'000U);
  // Ending no episode changes nothing.
  OverloadGovernor idle(small_ladder());
  idle.end_episode();
  EXPECT_EQ(idle.next().action, OverloadAction::kSpin);
}

TEST(OverloadPolicy, HangClockRunsAcrossTheEpisode) {
  constexpr std::uint64_t kLimit = 50;
  OverloadGovernor governor(small_ladder());
  // The first check starts the clock, whatever the time reads.
  EXPECT_FALSE(governor.hung(7, false, 1'000, kLimit));
  EXPECT_FALSE(governor.hung(7, false, 1'049, kLimit));
  // Progress, or a worker still waking from its park, restarts it.
  EXPECT_FALSE(governor.hung(8, false, 1'060, kLimit));
  EXPECT_FALSE(governor.hung(8, true, 1'100, kLimit));
  EXPECT_FALSE(governor.hung(8, false, 1'149, kLimit));
  // It spans the episode's batches.
  governor.next_batch();
  EXPECT_TRUE(governor.hung(8, false, 1'150, kLimit));
  // A landed push ends the episode and the clock with it.
  governor.end_episode();
  EXPECT_FALSE(governor.hung(8, false, 5'000, kLimit));
  EXPECT_TRUE(governor.hung(8, false, 5'050, kLimit));
}

}  // namespace
}  // namespace dart::runtime
