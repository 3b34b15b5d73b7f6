// VantageExporter: sequence discipline, publish-slot accounting, the stats
// section a state frame carries, and the exact delivery shapes each
// exporter-side fault produces — the collector's test vectors come from
// here, so the shapes must be pinned.
#include "fleet/vantage_exporter.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analytics/histogram.hpp"
#include "fleet/frame.hpp"
#include "fleet/snapshot_sink.hpp"
#include "runtime/fault_injection.hpp"

namespace dart::fleet {
namespace {

using FrameError = SealedError;
using FrameErrorCode = SealedErrorCode;

VantageExporterConfig small_config() {
  VantageExporterConfig config;
  config.vantage = 3;
  config.name = "campus-3";
  config.expected_routed = 400;
  config.planned_epochs = 2;
  config.epoch_interval = 200;
  return config;
}

/// Counters of a vantage that processed all `cursor` routed packets.
core::DartStats processed(std::uint64_t cursor) {
  core::DartStats stats;
  stats.packets_processed = cursor;
  return stats;
}

SnapshotFrame decode_entry(const MemorySink::Entry& entry) {
  SnapshotFrame frame;
  const FrameError err = decode_frame(entry.bytes, &frame);
  EXPECT_FALSE(err) << err.to_string();
  return frame;
}

TEST(VantageExporter, PublishesSequencedStream) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_TRUE(exporter.publish_final(2, 400, processed(400)));
  EXPECT_FALSE(exporter.killed());
  EXPECT_EQ(exporter.frames_published(), 3u);

  ASSERT_EQ(sink.entries().size(), 3u);
  const FrameKind kinds[] = {FrameKind::kManifest, FrameKind::kEpoch,
                             FrameKind::kFinal};
  for (std::size_t i = 0; i < sink.entries().size(); ++i) {
    EXPECT_EQ(sink.entries()[i].vantage, 3u);
    EXPECT_EQ(sink.entries()[i].publish_index, i);
    const SnapshotFrame frame = decode_entry(sink.entries()[i]);
    EXPECT_EQ(frame.header.vantage, 3u);
    EXPECT_EQ(frame.header.sequence, i);
    EXPECT_EQ(frame.header.kind, kinds[i]);
  }

  const SnapshotFrame manifest = decode_entry(sink.entries()[0]);
  ASSERT_TRUE(manifest.has_info);
  EXPECT_EQ(manifest.info.name, "campus-3");
  EXPECT_EQ(manifest.info.expected_routed, 400u);
}

TEST(VantageExporter, DefaultsNameFromVantageId) {
  MemorySink sink;
  VantageExporterConfig config;
  config.vantage = 9;
  VantageExporter exporter(config, sink);
  ASSERT_TRUE(exporter.publish_manifest());
  EXPECT_EQ(decode_entry(sink.entries()[0]).info.name, "v9");
}

// A state frame carries the counters it was given, every field, as its
// stats section — the identity-consistent numbers the collector checks
// against the cursor. The manifest carries none.
TEST(VantageExporter, RendersIdentityConsistentTelemetry) {
  core::DartStats stats;
  stats.packets_processed = 950;
  stats.samples = 120;
  stats.recirculations = 31;
  stats.runtime.shed_packets = 50;
  stats.runtime.backpressure_events = 7;
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_final(1, 1000, stats));

  ASSERT_EQ(sink.entries().size(), 2u);
  EXPECT_FALSE(decode_entry(sink.entries()[0]).has_stats);
  const SnapshotFrame frame = decode_entry(sink.entries()[1]);
  ASSERT_TRUE(frame.has_stats);
  EXPECT_EQ(frame.stats, stats);
  EXPECT_EQ(frame.stats.packets_processed + frame.stats.runtime.shed_packets,
            frame.header.cursor);
  EXPECT_FALSE(frame.has_rtt_histogram);
}

TEST(VantageExporter, PublishesRttHistogramSection) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  analytics::LogHistogram rtt;
  rtt.add(50'000);   // 50 us
  rtt.add(900'000);  // 900 us
  rtt.add(900'000);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(1, 200, processed(200), &rtt));
  ASSERT_TRUE(exporter.publish_final(2, 400, processed(400), &rtt));

  ASSERT_EQ(sink.entries().size(), 3u);
  EXPECT_FALSE(decode_entry(sink.entries()[0]).has_rtt_histogram);
  for (const std::size_t at : {std::size_t{1}, std::size_t{2}}) {
    const SnapshotFrame frame = decode_entry(sink.entries()[at]);
    ASSERT_TRUE(frame.has_rtt_histogram) << "entry " << at;
    EXPECT_EQ(frame.rtt_histogram.total(), 3u);
    EXPECT_EQ(frame.rtt_histogram.seen_min, 50'000u);
    EXPECT_EQ(frame.rtt_histogram.seen_max, 900'000u);
    EXPECT_EQ(frame.rtt_histogram.log_min, rtt.log_min());
    EXPECT_EQ(frame.rtt_histogram.log_step, rtt.log_step());
  }
}


// The three skew shapes: a constant offset, per-epoch drift, and an epoch
// lag. Each rewrites the sealed epoch header (frames re-seal, so they stay
// CRC-valid — the collector must catch skew by alignment, not integrity);
// the manifest never skews, and cursors are untouched.
TEST(VantageExporterFaults, SkewOffsetShiftsEveryStateEpoch) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  runtime::FaultPlan plan;
  plan.exporter_epoch_skew(3);
  exporter.set_fault_plan(&plan);

  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_TRUE(exporter.publish_final(2, 400, processed(400)));
  ASSERT_EQ(sink.entries().size(), 3u);
  EXPECT_EQ(decode_entry(sink.entries()[0]).header.epoch, 0u);
  EXPECT_EQ(decode_entry(sink.entries()[1]).header.epoch, 4u);
  EXPECT_EQ(decode_entry(sink.entries()[2]).header.epoch, 5u);
  // The trusted clock is untouched: cursors still tell the truth.
  EXPECT_EQ(decode_entry(sink.entries()[1]).header.cursor, 200u);
  EXPECT_EQ(decode_entry(sink.entries()[2]).header.cursor, 400u);
}

TEST(VantageExporterFaults, SkewDriftGrowsWithTheEpoch) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  runtime::FaultPlan plan;
  plan.exporter_epoch_skew(0, 2);
  exporter.set_fault_plan(&plan);

  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_TRUE(exporter.publish_final(2, 400, processed(400)));
  EXPECT_EQ(decode_entry(sink.entries()[1]).header.epoch, 3u);  // 1 + 2*1
  EXPECT_EQ(decode_entry(sink.entries()[2]).header.epoch, 6u);  // 2 + 2*2
}

TEST(VantageExporterFaults, EpochLagClampsAtZero) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  runtime::FaultPlan plan;
  plan.exporter_epoch_skew(0, 0, 3);
  exporter.set_fault_plan(&plan);

  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_TRUE(exporter.publish_final(2, 400, processed(400)));
  EXPECT_EQ(decode_entry(sink.entries()[1]).header.epoch, 0u);  // 1-3 -> 0
  EXPECT_EQ(decode_entry(sink.entries()[2]).header.epoch, 0u);  // 2-3 -> 0
}

TEST(VantageExporterFaults, KillStopsTheStreamBeforeTheFrame) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  runtime::FaultPlan plan;
  plan.exporter_kill(2);
  exporter.set_fault_plan(&plan);

  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_FALSE(exporter.publish_epoch(2, 400, processed(400)));
  EXPECT_TRUE(exporter.killed());
  // Once dead, everything is a no-op — like the process it models.
  EXPECT_FALSE(exporter.publish_final(3, 400, processed(400)));
  ASSERT_EQ(sink.entries().size(), 2u);
  EXPECT_EQ(decode_entry(sink.entries().back()).header.sequence, 1u);
}

TEST(VantageExporterFaults, TruncateTearsExactlyOneFrame) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  runtime::FaultPlan plan;
  plan.exporter_truncate(1, 40);
  exporter.set_fault_plan(&plan);

  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_TRUE(exporter.publish_final(2, 400, processed(400)));
  ASSERT_EQ(sink.entries().size(), 3u);
  EXPECT_EQ(sink.entries()[1].bytes.size(), 40u);
  SnapshotFrame torn;
  EXPECT_EQ(decode_frame(sink.entries()[1].bytes, &torn).code,
            FrameErrorCode::kTruncated);
  EXPECT_FALSE(decode_frame(sink.entries()[2].bytes, &torn));
}

TEST(VantageExporterFaults, DuplicateOccupiesTwoPublishSlots) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  runtime::FaultPlan plan;
  plan.exporter_duplicate(1);
  exporter.set_fault_plan(&plan);

  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_TRUE(exporter.publish_final(2, 400, processed(400)));
  ASSERT_EQ(sink.entries().size(), 4u);
  EXPECT_EQ(decode_entry(sink.entries()[1]).header.sequence, 1u);
  EXPECT_EQ(decode_entry(sink.entries()[2]).header.sequence, 1u);
  EXPECT_EQ(sink.entries()[1].publish_index, 1u);
  EXPECT_EQ(sink.entries()[2].publish_index, 2u);
  EXPECT_EQ(sink.entries()[1].bytes, sink.entries()[2].bytes);
  EXPECT_EQ(decode_entry(sink.entries()[3]).header.sequence, 2u);
}

TEST(VantageExporterFaults, ReorderDeliversAfterSuccessor) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  runtime::FaultPlan plan;
  plan.exporter_reorder(1);
  exporter.set_fault_plan(&plan);

  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_TRUE(exporter.publish_final(2, 400, processed(400)));
  EXPECT_EQ(exporter.frames_published(), 3u);
  ASSERT_EQ(sink.entries().size(), 3u);
  // Arrival order: 0, 2, 1 — while publish slots stay monotonic.
  EXPECT_EQ(decode_entry(sink.entries()[0]).header.sequence, 0u);
  EXPECT_EQ(decode_entry(sink.entries()[1]).header.sequence, 2u);
  EXPECT_EQ(decode_entry(sink.entries()[2]).header.sequence, 1u);
  EXPECT_EQ(sink.entries()[2].publish_index, 2u);
}

TEST(VantageExporterFaults, ReorderedFrameCanAlsoDuplicate) {
  MemorySink sink;
  VantageExporter exporter(small_config(), sink);
  runtime::FaultPlan plan;
  plan.exporter_reorder(1);
  plan.exporter_duplicate(1);
  exporter.set_fault_plan(&plan);

  EXPECT_TRUE(exporter.publish_manifest());
  EXPECT_TRUE(exporter.publish_epoch(1, 200, processed(200)));
  EXPECT_TRUE(exporter.publish_final(2, 400, processed(400)));
  ASSERT_EQ(sink.entries().size(), 4u);
  // The held frame keeps its own sequence through the duplicate fault:
  // arrival order 0, 2, 1, 1.
  EXPECT_EQ(decode_entry(sink.entries()[1]).header.sequence, 2u);
  EXPECT_EQ(decode_entry(sink.entries()[2]).header.sequence, 1u);
  EXPECT_EQ(decode_entry(sink.entries()[3]).header.sequence, 1u);
}


}  // namespace
}  // namespace dart::fleet
