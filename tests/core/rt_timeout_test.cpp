// The Range Tracker idle timeout (Section 7): defense against attacks that
// leave data forever unacknowledged.
#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "core/range_tracker.hpp"
#include "gen/workload.hpp"

namespace dart::core {
namespace {

const FourTuple kFlow{Ipv4Addr{10, 8, 0, 9}, Ipv4Addr{93, 184, 216, 34},
                      40000, 443};

TEST(RtIdleTimeout, EntryAbandonedAfterNoAckProgress) {
  RangeTracker rt{0, 1, true, /*idle_timeout=*/sec(5)};
  rt.on_seq(kFlow, 1000, 2000, /*now=*/sec(1));
  const std::uint64_t ref = rt.ref_of(kFlow);
  const std::uint32_t sig = flow_signature(kFlow);

  EXPECT_TRUE(rt.still_valid(ref, sig, 2000, sec(4)));
  // 5+ seconds with no ACK progress: abandoned.
  EXPECT_FALSE(rt.still_valid(ref, sig, 2000, sec(7)));
}

TEST(RtIdleTimeout, SeqActivityDoesNotRefresh) {
  // The whole point: an attacker streaming un-ACKed data must not keep the
  // range alive.
  RangeTracker rt{0, 1, true, sec(5)};
  rt.on_seq(kFlow, 1000, 2000, sec(1));
  rt.on_seq(kFlow, 2000, 3000, sec(3));  // in-order growth
  rt.on_seq(kFlow, 3000, 4000, sec(5));
  EXPECT_FALSE(rt.still_valid(rt.ref_of(kFlow), flow_signature(kFlow), 4000,
                              sec(7)));
}

TEST(RtIdleTimeout, AckProgressRefreshes) {
  RangeTracker rt{0, 1, true, sec(5)};
  rt.on_seq(kFlow, 1000, 2000, sec(1));
  rt.on_seq(kFlow, 2000, 3000, sec(3));
  EXPECT_EQ(rt.on_ack(kFlow, 2000, true, sec(4)), AckDecision::kAdvance);
  // Clock restarts at the advance.
  EXPECT_TRUE(rt.still_valid(rt.ref_of(kFlow), flow_signature(kFlow), 3000,
                             sec(8)));
  EXPECT_FALSE(rt.still_valid(rt.ref_of(kFlow), flow_signature(kFlow), 3000,
                              sec(10)));
}

TEST(RtIdleTimeout, ExpiredEntryIgnoresLateAck) {
  RangeTracker rt{0, 1, true, sec(5)};
  rt.on_seq(kFlow, 1000, 2000, sec(1));
  EXPECT_EQ(rt.on_ack(kFlow, 2000, true, sec(10)), AckDecision::kNoEntry);
}

TEST(RtIdleTimeout, SlotReusedAsNewFlowAfterExpiry) {
  RangeTracker rt{0, 1, true, sec(5)};
  rt.on_seq(kFlow, 1000, 2000, sec(1));
  const SeqOutcome outcome = rt.on_seq(kFlow, 9000, 9100, sec(10));
  EXPECT_EQ(outcome.decision, SeqDecision::kTrackNew);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_TRUE(outcome.track);
  // The reborn range works normally.
  EXPECT_EQ(rt.on_ack(kFlow, 9100, true, sec(10) + msec(20)),
            AckDecision::kAdvance);
}

TEST(RtIdleTimeout, DisabledByDefault) {
  RangeTracker rt{0, 1, true};  // timeout 0 = off
  rt.on_seq(kFlow, 1000, 2000, sec(1));
  EXPECT_TRUE(rt.still_valid(rt.ref_of(kFlow), flow_signature(kFlow), 2000,
                             sec(100000)));
}

// Snapshot `source` into a one-section image and restore it into `target`.
SealedError round_trip(const RangeTracker& source, RangeTracker* target) {
  CheckpointWriter writer(SnapshotMeta{});
  writer.begin_section(CheckpointSection::kRangeTracker);
  source.snapshot(writer);
  writer.end_section();
  const CheckpointImage image = writer.seal();
  CheckpointInfo info;
  if (const SealedError err = read_info(image, &info)) return err;
  SealedReader reader(
      std::span<const std::uint8_t>(image.bytes)
          .subspan(static_cast<std::size_t>(info.sections.at(0).offset),
                   static_cast<std::size_t>(info.sections.at(0).length)),
      info.sections.at(0).offset);
  if (const SealedError err = target->restore(reader)) return err;
  return reader.finish();
}

// An entry the idle timeout killed on an ACK is dead for good: a checkpoint
// cut after the kill must not bring it back, or the restored tracker counts
// an idle timeout the original never does. Unbounded mode used to keep the
// dead key in its map, and restore marked every written entry live.
class RtIdleTimeoutCheckpoint : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RtIdleTimeoutCheckpoint, ExpiredEntryStaysDeadAcrossRestore) {
  const std::size_t size = GetParam();
  RangeTracker original{size, 1, true, sec(2)};
  original.on_seq(kFlow, 1000, 2000, /*now=*/0);
  EXPECT_EQ(original.on_ack(kFlow, 2000, true, sec(6)), AckDecision::kNoEntry);
  EXPECT_EQ(original.occupied(), 0U);

  RangeTracker restored{size, 1, true, sec(2)};
  ASSERT_FALSE(round_trip(original, &restored));
  EXPECT_EQ(restored.occupied(), 0U);

  const SeqOutcome want = original.on_seq(kFlow, 1000, 2000, sec(8));
  const SeqOutcome got = restored.on_seq(kFlow, 1000, 2000, sec(8));
  EXPECT_TRUE(want.new_flow);
  EXPECT_FALSE(want.timed_out);
  EXPECT_EQ(got.new_flow, want.new_flow);
  EXPECT_EQ(got.timed_out, want.timed_out);
  EXPECT_EQ(got.decision, want.decision);
}

INSTANTIATE_TEST_SUITE_P(Modes, RtIdleTimeoutCheckpoint,
                         ::testing::Values(std::size_t{0}, std::size_t{1024}),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("Unbounded")
                                                  : std::string("Bounded");
                         });

// End-to-end: the stranded-data attack of Section 7 against a small Dart
// instance, with and without the timeout.
class StrandedAttack : public ::testing::Test {
 protected:
  static trace::Trace attack_plus_victims() {
    gen::StrandedAttackConfig attack;
    attack.flows = 800;
    attack.packets_per_flow = 20;
    attack.duration = sec(30);
    trace::Trace merged = gen::build_stranded_attack(attack);

    // Legitimate background traffic whose samples the attack crowds out.
    gen::CampusConfig victims;
    victims.connections = 800;
    victims.duration = sec(30);
    victims.seed = 77;
    std::vector<trace::Trace> parts;
    parts.push_back(std::move(merged));
    parts.push_back(gen::build_campus(victims));
    return trace::merge(std::move(parts));
  }

  static std::size_t victim_samples(Timestamp rt_timeout) {
    DartConfig config;
    config.rt_size = 1 << 12;
    config.pt_size = 1 << 10;  // small: the attack hurts
    config.rt_idle_timeout = rt_timeout;
    std::size_t samples = 0;
    DartMonitor dart(config, [&samples](const RttSample&) { ++samples; });
    dart.process_all(attack_plus_victims().packets());
    return samples;
  }
};

TEST_F(StrandedAttack, TimeoutRestoresVictimSamples) {
  const std::size_t without = victim_samples(0);
  const std::size_t with = victim_samples(sec(5));
  // Attacker flows produce no samples, so every sample is a victim's. The
  // timeout lets stranded attack records self-destruct at eviction instead
  // of being endlessly recirculated as "valid".
  EXPECT_GT(with, without + without / 10)
      << "timeout should recover >10% more victim samples";
}

TEST_F(StrandedAttack, TimeoutCountsAppearInStats) {
  DartConfig config;
  config.rt_size = 1 << 12;
  config.pt_size = 1 << 10;
  config.rt_idle_timeout = sec(5);
  DartMonitor dart(config);
  dart.process_all(attack_plus_victims().packets());
  EXPECT_GT(dart.stats().rt_idle_timeouts + dart.stats().drops_stale, 0U);
}

}  // namespace
}  // namespace dart::core
