// Range Tracker semantics (paper Section 3.1, Figure 4).
#include "core/range_tracker.hpp"

#include <gtest/gtest.h>

#include "common/random.hpp"

namespace dart::core {
namespace {

FourTuple flow_a() {
  return FourTuple{Ipv4Addr{10, 8, 0, 1}, Ipv4Addr{93, 184, 216, 34}, 40001,
                   443};
}

FourTuple flow_b() {
  return FourTuple{Ipv4Addr{10, 9, 3, 7}, Ipv4Addr{142, 250, 64, 100}, 51515,
                   80};
}

class RangeTrackerModes : public ::testing::TestWithParam<std::size_t> {
 protected:
  RangeTracker make() const {
    return RangeTracker{GetParam(), /*hash_seed=*/1, /*wraparound_reset=*/true};
  }
};

INSTANTIATE_TEST_SUITE_P(BoundedAndUnbounded, RangeTrackerModes,
                         ::testing::Values<std::size_t>(0, 1 << 12),
                         [](const auto& info) {
                           return info.param == 0 ? "Unbounded" : "Bounded";
                         });

TEST_P(RangeTrackerModes, FirstSeqCreatesTrackedEntry) {
  RangeTracker rt = make();
  const SeqOutcome outcome = rt.on_seq(flow_a(), 1000, 2460);
  EXPECT_EQ(outcome.decision, SeqDecision::kTrackNew);
  EXPECT_TRUE(outcome.track);
  EXPECT_TRUE(outcome.new_flow);
  EXPECT_EQ(rt.occupied(), 1U);
}

TEST_P(RangeTrackerModes, InOrderSeqAdvancesRightEdge) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  const SeqOutcome outcome = rt.on_seq(flow_a(), 2460, 3920);
  EXPECT_EQ(outcome.decision, SeqDecision::kTrackInOrder);
  EXPECT_TRUE(outcome.track);
  // Both packets' eACKs are now inside (left, right].
  const std::uint64_t ref = rt.ref_of(flow_a());
  const std::uint32_t sig = flow_signature(flow_a());
  EXPECT_TRUE(rt.still_valid(ref, sig, 2460));
  EXPECT_TRUE(rt.still_valid(ref, sig, 3920));
}

TEST_P(RangeTrackerModes, RetransmissionCollapsesRange) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  rt.on_seq(flow_a(), 2460, 3920);
  // Retransmit the first segment: eACK (2460) <= right (3920).
  const SeqOutcome outcome = rt.on_seq(flow_a(), 1000, 2460);
  EXPECT_EQ(outcome.decision, SeqDecision::kRetransmission);
  EXPECT_FALSE(outcome.track);
  // The whole range is now ambiguous: nothing is still valid.
  const std::uint64_t ref = rt.ref_of(flow_a());
  const std::uint32_t sig = flow_signature(flow_a());
  EXPECT_FALSE(rt.still_valid(ref, sig, 2460));
  EXPECT_FALSE(rt.still_valid(ref, sig, 3920));
}

TEST_P(RangeTrackerModes, TrackingResumesAfterCollapse) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  rt.on_seq(flow_a(), 1000, 2460);  // collapse
  // Next new data continues from the old right edge: normal operation.
  const SeqOutcome outcome = rt.on_seq(flow_a(), 2460, 3920);
  EXPECT_EQ(outcome.decision, SeqDecision::kTrackInOrder);
  EXPECT_TRUE(outcome.track);
  EXPECT_TRUE(rt.still_valid(rt.ref_of(flow_a()), flow_signature(flow_a()),
                             3920));
}

TEST_P(RangeTrackerModes, HoleReanchorsToNewestRange) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);  // P1
  // P3 arrives, P2 (2460..3920) missing: hole.
  const SeqOutcome outcome = rt.on_seq(flow_a(), 3920, 5380);
  EXPECT_EQ(outcome.decision, SeqDecision::kTrackAfterHole);
  EXPECT_TRUE(outcome.track);
  const std::uint64_t ref = rt.ref_of(flow_a());
  const std::uint32_t sig = flow_signature(flow_a());
  // Only the newest contiguous range is kept: P1's eACK is forgone.
  EXPECT_FALSE(rt.still_valid(ref, sig, 2460));
  EXPECT_TRUE(rt.still_valid(ref, sig, 5380));
}

TEST_P(RangeTrackerModes, OverlappingRetransmissionWithNewBytesCollapses) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  // seq < right < eACK: rtx spanning old and new bytes.
  const SeqOutcome outcome = rt.on_seq(flow_a(), 2000, 3000);
  EXPECT_EQ(outcome.decision, SeqDecision::kRetransmission);
  EXPECT_FALSE(outcome.track);
}

TEST_P(RangeTrackerModes, AckAdvancesLeftEdge) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  rt.on_seq(flow_a(), 2460, 3920);
  EXPECT_EQ(rt.on_ack(flow_a(), 2460), AckDecision::kAdvance);
  const std::uint64_t ref = rt.ref_of(flow_a());
  const std::uint32_t sig = flow_signature(flow_a());
  // 2460 is now the left edge: no longer inside the half-open range.
  EXPECT_FALSE(rt.still_valid(ref, sig, 2460));
  EXPECT_TRUE(rt.still_valid(ref, sig, 3920));
}

TEST_P(RangeTrackerModes, DuplicatePureAckCollapsesRange) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  rt.on_seq(flow_a(), 2460, 3920);
  EXPECT_EQ(rt.on_ack(flow_a(), 2460), AckDecision::kAdvance);
  // The same pure ACK again: duplicate -> reordering inferred -> collapse.
  EXPECT_EQ(rt.on_ack(flow_a(), 2460), AckDecision::kDuplicate);
  EXPECT_FALSE(rt.still_valid(rt.ref_of(flow_a()), flow_signature(flow_a()),
                              3920));
}

TEST_P(RangeTrackerModes, PiggybackedRepeatAckDoesNotCollapse) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  rt.on_seq(flow_a(), 2460, 3920);
  ASSERT_EQ(rt.on_ack(flow_a(), 2460, /*pure_ack=*/true),
            AckDecision::kAdvance);
  // A reverse-direction data segment repeating the cumulative ACK is not a
  // duplicate ACK in TCP's sense; the range must survive.
  EXPECT_EQ(rt.on_ack(flow_a(), 2460, /*pure_ack=*/false),
            AckDecision::kBelowLeft);
  EXPECT_TRUE(rt.still_valid(rt.ref_of(flow_a()), flow_signature(flow_a()),
                             3920));
}

TEST_P(RangeTrackerModes, StaleAckIgnored) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  rt.on_seq(flow_a(), 2460, 3920);
  rt.on_ack(flow_a(), 3920);
  EXPECT_EQ(rt.on_ack(flow_a(), 2000), AckDecision::kBelowLeft);
}

TEST_P(RangeTrackerModes, OptimisticAckIgnored) {
  RangeTracker rt = make();
  rt.on_seq(flow_a(), 1000, 2460);
  // ACK for bytes never sent (Section 7): must not mislead the tracker.
  EXPECT_EQ(rt.on_ack(flow_a(), 9999), AckDecision::kOptimistic);
  EXPECT_TRUE(rt.still_valid(rt.ref_of(flow_a()), flow_signature(flow_a()),
                             2460));
}

TEST_P(RangeTrackerModes, AckForUnknownFlowReportsNoEntry) {
  RangeTracker rt = make();
  EXPECT_EQ(rt.on_ack(flow_a(), 100), AckDecision::kNoEntry);
}

TEST_P(RangeTrackerModes, WraparoundResetForfeitsPreWrapSamples) {
  RangeTracker rt = make();
  const SeqNum high = 0xFFFFF800U;  // 2048 below the wrap point
  rt.on_seq(flow_a(), high, high + 1460);
  // Next segment spans the wrap: its eACK is numerically below its seq.
  const SeqNum seq2 = high + 1460;           // 0xFFFFFDB4
  const SeqNum eack2 = seq2 + 1460;          // wraps to 0x368
  ASSERT_LT(eack2, seq2) << "test setup must actually wrap";
  const SeqOutcome outcome = rt.on_seq(flow_a(), seq2, eack2);
  EXPECT_EQ(outcome.decision, SeqDecision::kWraparoundReset);
  EXPECT_TRUE(outcome.track);
  const std::uint64_t ref = rt.ref_of(flow_a());
  const std::uint32_t sig = flow_signature(flow_a());
  // Pre-wrap eACK forgone; post-wrap eACK tracked.
  EXPECT_FALSE(rt.still_valid(ref, sig, high + 1460));
  EXPECT_TRUE(rt.still_valid(ref, sig, eack2));
}

TEST(RangeTrackerSerial, SerialModeTracksAcrossWrap) {
  // Extension mode: full serial arithmetic, no reset at the wrap.
  RangeTracker rt{0, 1, /*wraparound_reset=*/false};
  const SeqNum high = 0xFFFFF000U;
  rt.on_seq(flow_a(), high, high + 1460);
  const SeqOutcome outcome = rt.on_seq(flow_a(), high + 1460, high + 2920);
  EXPECT_EQ(outcome.decision, SeqDecision::kTrackInOrder);
  const std::uint64_t ref = rt.ref_of(flow_a());
  const std::uint32_t sig = flow_signature(flow_a());
  EXPECT_TRUE(rt.still_valid(ref, sig, high + 1460));
  EXPECT_TRUE(rt.still_valid(ref, sig, high + 2920));
  EXPECT_EQ(rt.on_ack(flow_a(), high + 1460), AckDecision::kAdvance);
}

TEST(RangeTrackerBounded, HashCollisionOverwritesOldFlow) {
  // A 4-slot table forces collisions quickly; the newcomer wins the slot.
  RangeTracker rt{4, 1, true};
  std::size_t overwrites = 0;
  for (int i = 0; i < 64; ++i) {
    FourTuple t = flow_b();
    t.src_port = static_cast<std::uint16_t>(10000 + i);
    const SeqOutcome outcome = rt.on_seq(t, 100, 200);
    EXPECT_TRUE(outcome.track);
    if (outcome.overwrote) ++overwrites;
  }
  EXPECT_GT(overwrites, 0U);
  EXPECT_LE(rt.occupied(), 4U);
}

TEST(RangeTrackerBounded, FlowsInDistinctSlotsDoNotInterfere) {
  RangeTracker rt{1 << 12, 1, true};
  rt.on_seq(flow_a(), 1000, 2460);
  rt.on_seq(flow_b(), 5000, 6000);
  EXPECT_EQ(rt.on_ack(flow_a(), 2460), AckDecision::kAdvance);
  EXPECT_EQ(rt.on_ack(flow_b(), 6000), AckDecision::kAdvance);
  EXPECT_EQ(rt.occupied(), 2U);
}

// Checkpoint images and recirculated PT records store RT slot refs, so the
// slot a tuple hash maps to must never move. These refs were produced by
// the HashFamily-modulo indexing that predates SlotHash; 1000 slots pins
// the modulo branch, 2^16 the mask branch, 1 the degenerate table.
TEST(RangeTrackerGolden, SlotRefsAreStable) {
  struct Golden {
    std::uint64_t seed;
    std::size_t size;
    std::uint64_t tuple_hash;
    std::uint64_t ref;
  };
  const Golden golden[] = {
      {0xDA27, 1 << 16, 0x0, 50901},
      {0xDA27, 1 << 16, 0xDEAD'BEEF'CAFE'F00DULL, 21372},
      {0x1234'5678'9ABC'DEF0ULL, 1 << 16, 0x8000'0000'0000'0001ULL, 12220},
      {0xDA27, 1000, 0x1, 306},
      {0xDA27, 1000, 0x8000'0000'0000'0001ULL, 975},
      {0x1234'5678'9ABC'DEF0ULL, 1000, 0xDEAD'BEEF'CAFE'F00DULL, 72},
      {0xDA27, 1, 0xDEAD'BEEF'CAFE'F00DULL, 0},
  };
  for (const Golden& g : golden) {
    const RangeTracker rt{g.size, g.seed, true};
    EXPECT_EQ(rt.ref_of_hashed(g.tuple_hash), g.ref)
        << "seed " << g.seed << " size " << g.size << " hash "
        << g.tuple_hash;
  }
}

TEST(RangeTrackerProperty, LeftNeverPassesRight) {
  // Drive a flow with a pseudo-random mix of events and assert the
  // invariant left <= right (serially) throughout, observed via
  // still_valid's half-open interval never accepting eACK == left.
  RangeTracker rt{0, 1, true};
  Rng rng(2024);
  SeqNum right = 1000;
  rt.on_seq(flow_a(), right, right + 1000);
  right += 1000;
  for (int i = 0; i < 2000; ++i) {
    const double roll = rng.uniform();
    if (roll < 0.5) {
      rt.on_seq(flow_a(), right, right + 500);
      right += 500;
    } else if (roll < 0.7) {
      rt.on_seq(flow_a(), right - 500, right);  // rtx
    } else if (roll < 0.9) {
      rt.on_ack(flow_a(), right - static_cast<SeqNum>(
          rng.uniform_int(0, 400)));
    } else {
      rt.on_seq(flow_a(), right + 700, right + 1200);  // hole
      right += 1200;
    }
    // eACK strictly beyond right is never valid (optimistic protection).
    EXPECT_FALSE(rt.still_valid(rt.ref_of(flow_a()),
                                flow_signature(flow_a()), right + 1));
  }
}

}  // namespace
}  // namespace dart::core
