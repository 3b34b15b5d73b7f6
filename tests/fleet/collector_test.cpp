// FleetCollector: quarantine ladder, sequence discipline, reorder healing,
// liveness fencing with exact loss windows, and the deterministic merged
// report. Every test drives the collector through a real spool directory —
// the same surface the dart-fleet CLI and the chaos harness use.
#include "fleet/collector.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analytics/histogram.hpp"
#include "fleet/frame.hpp"
#include "fleet/snapshot_sink.hpp"
#include "fleet/vantage_exporter.hpp"

namespace dart::fleet {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / ("fleet_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Counters of a vantage that processed every routed packet.
core::DartStats clean_stats(std::uint64_t cursor, std::uint64_t samples) {
  core::DartStats stats;
  stats.packets_processed = cursor;
  stats.samples = samples;
  return stats;
}

VantageExporterConfig vantage_config(std::uint64_t vantage,
                                     std::uint64_t expected) {
  VantageExporterConfig config;
  config.vantage = vantage;
  config.expected_routed = expected;
  config.planned_epochs = 2;
  config.epoch_interval = expected / 2;
  return config;
}

/// manifest, epoch(100), final(200) — the minimal healthy stream.
void publish_clean_stream(SnapshotSink& sink, std::uint64_t vantage) {
  VantageExporter exporter(vantage_config(vantage, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(1, 100, clean_stats(100, 10)));
  ASSERT_TRUE(exporter.publish_final(2, 200, clean_stats(200, 20)));
}

CollectorConfig offline_config(const std::string& dir,
                               std::uint64_t vantages) {
  CollectorConfig config;
  config.spool_dir = dir;
  config.vantages = vantages;
  config.fence_after_attempts = 2;
  config.gap_grace_attempts = 1;
  config.max_attempts = 16;
  config.retry.base_delay_ns = 1;  // offline: no point sleeping
  config.retry.max_delay_ns = 1;
  return config;
}

TEST(FleetCollector, CleanFleetResolvesComplete) {
  const std::string dir = fresh_dir("clean");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);
  publish_clean_stream(sink, 1);

  FleetCollector collector(offline_config(dir, 2));
  collector.run();
  ASSERT_TRUE(collector.resolved());
  for (std::uint64_t v = 0; v < 2; ++v) {
    EXPECT_EQ(collector.status(v).state, VantageState::kComplete);
    EXPECT_EQ(collector.status(v).cursor, 200u);
    EXPECT_EQ(collector.status(v).lost_to_vantage(), 0u);
  }
  EXPECT_TRUE(collector.quarantined().empty());

  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
}

TEST(FleetCollector, ReportIsByteStableAcrossCollections) {
  const std::string dir = fresh_dir("stable");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);

  FleetCollector first(offline_config(dir, 1));
  first.run();
  FleetCollector second(offline_config(dir, 1));
  second.run();
  EXPECT_EQ(first.report_text(), second.report_text());
}

TEST(FleetCollector, QuarantinesCorruptFrameAndStillCompletes) {
  const std::string dir = fresh_dir("corrupt");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);
  // Flip a sealed byte of the epoch frame (publish slot 1) on disk.
  const std::string victim =
      (std::filesystem::path(dir) / SpoolSink::file_name(0, 1)).string();
  std::vector<std::uint8_t> bytes;
  ASSERT_FALSE(load_frame_file(victim, &bytes));
  bytes[kFrameHeaderBytes] ^= 0x01;
  std::ofstream(victim, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  // The damaged frame is quarantined, its sequence slot is eventually
  // skipped, and the cumulative final frame completes the vantage anyway.
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kCrcMismatch), 1u);
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
  EXPECT_EQ(collector.status(0).frames_missing, 1u);
  EXPECT_EQ(collector.status(0).cursor, 200u);
  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
}

TEST(FleetCollector, QuarantinesUnknownVantage) {
  const std::string dir = fresh_dir("unknown");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);
  publish_clean_stream(sink, 7);  // outside the configured fleet of 1

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kUnknownVantage), 3u);
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
}

TEST(FleetCollector, QuarantinesDuplicateSequence) {
  const std::string dir = fresh_dir("duplicate");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);
  // Redeliver the epoch frame in a fresh publish slot.
  const auto src = std::filesystem::path(dir) / SpoolSink::file_name(0, 1);
  const auto dup = std::filesystem::path(dir) / SpoolSink::file_name(0, 9);
  std::filesystem::copy_file(src, dup);

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kDuplicateSequence),
            1u);
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
  EXPECT_EQ(collector.status(0).frames_missing, 0u);
}

TEST(FleetCollector, QuarantinesMisdeliveredFrame) {
  const std::string dir = fresh_dir("misdelivered");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);
  // A frame sealed by vantage 0 lands in vantage 1's spool slot.
  const auto src = std::filesystem::path(dir) / SpoolSink::file_name(0, 0);
  const auto dst = std::filesystem::path(dir) / SpoolSink::file_name(1, 0);
  std::filesystem::copy_file(src, dst);

  FleetCollector collector(offline_config(dir, 2));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kBadFrame), 1u);
  EXPECT_EQ(collector.status(1).state, VantageState::kMissing);
}

TEST(FleetCollector, QuarantinesStaleEpoch) {
  const std::string dir = fresh_dir("stale_epoch");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 300), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(2, 200, clean_stats(200, 20)));
  // Epoch goes backwards relative to accepted state: must be quarantined,
  // not silently rewind the loss cursor.
  ASSERT_TRUE(exporter.publish_epoch(1, 100, clean_stats(100, 10)));
  ASSERT_TRUE(exporter.publish_final(3, 300, clean_stats(300, 30)));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kStaleEpoch), 1u);
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
  EXPECT_EQ(collector.status(0).cursor, 300u);
}

TEST(FleetCollector, QuarantinesTelemetryCursorMismatch) {
  const std::string dir = fresh_dir("stats_mismatch");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  // The counters account for 150 packets but the envelope cursor says 100.
  ASSERT_TRUE(exporter.publish_epoch(1, 100, clean_stats(150, 10)));
  ASSERT_TRUE(exporter.publish_final(2, 200, clean_stats(200, 20)));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kStatsMismatch), 1u);
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
}

// A hostile section cannot balance its books by overflowing a counter:
// (2^64 - 1) + 101 wraps to the cursor of 100 but is no identity.
TEST(FleetCollector, QuarantinesStatsThatOnlyBalanceByWrapping) {
  const std::string dir = fresh_dir("stats_wrap");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  core::DartStats wrapped = clean_stats(~std::uint64_t{0}, 10);
  wrapped.runtime.shed_packets = 101;
  ASSERT_TRUE(exporter.publish_epoch(1, 100, wrapped));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kStatsMismatch), 1u);
  EXPECT_EQ(collector.status(0).cursor, 0u);
  EXPECT_EQ(collector.status(0).stats, core::DartStats{});
}

// Kind 3 (once a heartbeat) is no frame kind: a resealed kind-3 frame is
// quarantined at decode and its progress claim moves no cursor.
TEST(FleetCollector, QuarantinesResealedKindThreeFrame) {
  const std::string dir = fresh_dir("kind_three");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 500), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(1, 100, clean_stats(100, 10)));
  SnapshotFrame claim;
  claim.header.sequence = 2;
  claim.header.epoch = 2;
  claim.header.cursor = 400;
  claim.has_stats = true;
  claim.stats = clean_stats(400, 40);
  std::vector<std::uint8_t> bytes = encode_frame(claim);
  bytes[44] = 3;  // frame kind, little-endian u32
  reseal_frame(bytes);
  ASSERT_TRUE(sink.publish(0, 2, bytes));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kBadFrame), 1u);
  EXPECT_EQ(collector.status(0).state, VantageState::kStale);
  EXPECT_EQ(collector.status(0).cursor, 100u);
  EXPECT_EQ(collector.status(0).lost_to_vantage(), 400u);
  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
}

TEST(FleetCollector, FencesKilledVantageWithExactLossWindow) {
  const std::string dir = fresh_dir("killed");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);
  // Vantage 1 dies after one epoch: manifest promises 500, state covers 100.
  VantageExporter exporter(vantage_config(1, 500), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(1, 100, clean_stats(100, 10)));

  FleetCollector collector(offline_config(dir, 2));
  collector.run();
  const VantageStatus& dead = collector.status(1);
  EXPECT_EQ(dead.state, VantageState::kStale);
  EXPECT_EQ(dead.cursor, 100u);
  EXPECT_EQ(dead.lost_to_vantage(), 400u);
  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
  EXPECT_NE(collector.report_text().find(
                "fleet_lost_to_vantage_total{vantage=\"v1\"} 400"),
            std::string::npos);
}

TEST(FleetCollector, SilentVantageFencesMissing) {
  const std::string dir = fresh_dir("missing");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);

  FleetCollector collector(offline_config(dir, 2));
  collector.run();
  EXPECT_EQ(collector.status(1).state, VantageState::kMissing);
  // No manifest -> no denominator: the identity holds trivially rather
  // than inventing a loss number.
  EXPECT_EQ(collector.status(1).lost_to_vantage(), 0u);
  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
  EXPECT_NE(collector.report_text().find("fleet_vantages_missing 1"),
            std::string::npos);
}

TEST(FleetCollector, GapHealsWhenReorderedFrameArrivesInGrace) {
  const std::string dir = fresh_dir("reorder_heal");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(1, 100, clean_stats(100, 10)));
  ASSERT_TRUE(exporter.publish_final(2, 200, clean_stats(200, 20)));
  // Hide the epoch frame: the collector sees sequences 0 and 2 first.
  const auto held = std::filesystem::path(dir) / SpoolSink::file_name(0, 1);
  const auto aside = std::filesystem::path(dir) / "held.aside";
  std::filesystem::rename(held, aside);

  CollectorConfig config = offline_config(dir, 1);
  config.gap_grace_attempts = 4;
  FleetCollector collector(config);
  collector.poll();
  EXPECT_EQ(collector.status(0).next_sequence, 1u);  // gap held open
  EXPECT_EQ(collector.status(0).frames_missing, 0u);

  std::filesystem::rename(aside, held);  // the late frame lands
  collector.poll();
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
  EXPECT_EQ(collector.status(0).frames_missing, 0u);
  EXPECT_EQ(collector.status(0).frames_accepted, 3u);
}

TEST(FleetCollector, GapSkipsAfterGraceCountingMissing) {
  const std::string dir = fresh_dir("gap_skip");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(1, 100, clean_stats(100, 10)));
  ASSERT_TRUE(exporter.publish_final(2, 200, clean_stats(200, 20)));
  std::filesystem::remove(std::filesystem::path(dir) /
                          SpoolSink::file_name(0, 1));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
  EXPECT_EQ(collector.status(0).frames_missing, 1u);
  EXPECT_EQ(collector.status(0).cursor, 200u);  // cumulative: no loss
  EXPECT_EQ(collector.status(0).lost_to_vantage(), 0u);
}

TEST(FleetCollector, EmptySpoolDirectoryIsMissingFleetNotACrash) {
  const std::string dir = fresh_dir("empty");
  FleetCollector collector(offline_config(dir, 3));
  collector.run();
  for (std::uint64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(collector.status(v).state, VantageState::kMissing);
  }
  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
}

// ---------------------------------------------------------------------------
// Epoch alignment under skew: the cursor is the trusted clock.
// ---------------------------------------------------------------------------

/// The clean stream with every state epoch claimed `skew` epochs early.
void publish_skewed_stream(SnapshotSink& sink, std::uint64_t vantage,
                           std::uint64_t skew) {
  VantageExporter exporter(vantage_config(vantage, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(1 + skew, 100, clean_stats(100, 10)));
  ASSERT_TRUE(exporter.publish_final(2 + skew, 200, clean_stats(200, 20)));
}

TEST(FleetCollectorSkew, WithinGraceHealsToByteIdenticalReport) {
  const std::string clean_dir = fresh_dir("skew_clean");
  SpoolSink clean_sink(clean_dir);
  publish_clean_stream(clean_sink, 0);
  FleetCollector clean(offline_config(clean_dir, 1));
  clean.run();

  const std::string skew_dir = fresh_dir("skew_healed");
  SpoolSink skew_sink(skew_dir);
  publish_skewed_stream(skew_sink, 0, 2);  // at the default grace boundary
  FleetCollector skewed(offline_config(skew_dir, 1));
  skewed.run();

  // Every skewed frame healed: nothing quarantined, cursor complete, and
  // the canonical report — aligned epochs, watermark, identity counters —
  // is byte-for-byte the clean fleet's report.
  EXPECT_TRUE(skewed.quarantined().empty());
  EXPECT_EQ(skewed.status(0).state, VantageState::kComplete);
  EXPECT_EQ(skewed.report_text(), clean.report_text());

  // The skew did not vanish: the estimator sees it, in the side channel.
  EXPECT_GT(skewed.status(0).epoch_skew, 0);
  EXPECT_EQ(clean.status(0).epoch_skew, 0);
  EXPECT_NE(skewed.skew_report_text(), clean.skew_report_text());
  EXPECT_NE(skewed.skew_report_text().find("fleet_epoch_skew"),
            std::string::npos);
}

TEST(FleetCollectorSkew, BeyondGraceQuarantinesExactly) {
  const std::string dir = fresh_dir("skew_beyond");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  // Claimed epoch 9 against an aligned barrier of 1: skew 8 > grace 2.
  ASSERT_TRUE(exporter.publish_epoch(9, 100, clean_stats(100, 10)));
  ASSERT_TRUE(exporter.publish_final(2, 200, clean_stats(200, 20)));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kExcessiveSkew), 1u);
  // The quarantined frame consumed its sequence slot (it was adjudicated,
  // not lost); the cumulative final still completes the vantage losslessly.
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
  EXPECT_EQ(collector.status(0).frames_missing, 0u);
  EXPECT_EQ(collector.status(0).cursor, 200u);
  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
  EXPECT_NE(collector.report_text().find("excessive-skew"),
            std::string::npos);
}

TEST(FleetCollectorSkew, ExcessiveSkewFreezesTheLossCursor) {
  const std::string dir = fresh_dir("skew_loss");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 400), sink);  // interval 200
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(1, 200, clean_stats(200, 20)));
  // The final arrives with a hopeless clock: quarantined, so the cursor
  // must stay at 200 and the loss window must be exactly 400 - 200.
  ASSERT_TRUE(exporter.publish_final(77, 400, clean_stats(400, 40)));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kExcessiveSkew), 1u);
  EXPECT_EQ(collector.status(0).state, VantageState::kStale);
  EXPECT_EQ(collector.status(0).cursor, 200u);
  EXPECT_EQ(collector.status(0).lost_to_vantage(), 200u);
  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
  EXPECT_NE(collector.report_text().find(
                "fleet_lost_to_vantage_total{vantage=\"v0\"} 200"),
            std::string::npos);
}

TEST(FleetCollectorSkew, WatermarkIsTheSlowestAlignedVantage) {
  const std::string dir = fresh_dir("watermark");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);  // aligned epoch 2 at completion
  VantageExporter lagger(vantage_config(1, 200), sink);
  ASSERT_TRUE(lagger.publish_manifest());
  // Vantage 1 has only exported epoch 1 — but claims 3. The watermark is
  // measured in aligned epochs, so the skewed claim cannot drag the fleet
  // forward past what its cursor actually covers.
  ASSERT_TRUE(lagger.publish_epoch(3, 100, clean_stats(100, 10)));

  FleetCollector collector(offline_config(dir, 2));
  collector.poll();  // both vantages live, nobody fenced yet
  EXPECT_EQ(collector.status(0).aligned_epoch(), 2u);
  EXPECT_EQ(collector.status(1).aligned_epoch(), 1u);
  EXPECT_EQ(collector.epoch_watermark(), 1u);
  EXPECT_NE(collector.report_text().find("fleet_epoch_watermark 1"),
            std::string::npos);

  // Once the lagger is fenced stale it stops holding the watermark back.
  collector.finalize();
  EXPECT_EQ(collector.status(1).state, VantageState::kStale);
  EXPECT_EQ(collector.epoch_watermark(), 2u);
}

// Adversarial cursor at the integer ceiling: the claimed epoch is light
// years from the cursor-derived barrier, so the alignment gate quarantines
// the frame — no overflow, no crash, and the loss window stays exact.
TEST(FleetCollectorSkew, CursorAtIntegerCeilingQuarantinesSafely) {
  const std::string dir = fresh_dir("cursor_ceiling");
  SpoolSink sink(dir);
  VantageExporter exporter(vantage_config(0, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  // The counters account for all 2^63 packets, so the frame is internally
  // consistent — only the alignment gate is left to catch it.
  const std::uint64_t huge = std::uint64_t{1} << 63;
  ASSERT_TRUE(exporter.publish_epoch(1, huge, clean_stats(huge, 10)));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kExcessiveSkew), 1u);
  EXPECT_EQ(collector.status(0).state, VantageState::kStale);
  EXPECT_EQ(collector.status(0).cursor, 0u);
  EXPECT_EQ(collector.status(0).lost_to_vantage(), 200u);
  std::string error;
  EXPECT_TRUE(check_fleet_identity(collector.report_text(), &error)) << error;
}

// ---------------------------------------------------------------------------
// Fleet-wide RTT histogram merging.
// ---------------------------------------------------------------------------

void publish_stream_with_rtt(SnapshotSink& sink, std::uint64_t vantage,
                             const std::vector<std::uint64_t>& rtts) {
  analytics::LogHistogram hist;
  for (const std::uint64_t rtt : rtts) hist.add(rtt);
  VantageExporter exporter(vantage_config(vantage, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  ASSERT_TRUE(exporter.publish_epoch(
      1, 100, clean_stats(100, rtts.size()), &hist));
  ASSERT_TRUE(exporter.publish_final(
      2, 200, clean_stats(200, rtts.size()), &hist));
}

TEST(FleetCollectorRtt, MergedHistogramMatchesSingleCollectorReference) {
  const std::vector<std::uint64_t> v0_rtts = {50'000, 230'000, 230'000};
  const std::vector<std::uint64_t> v1_rtts = {1'200'000, 8'000'000};
  const std::string dir = fresh_dir("rtt_merge");
  SpoolSink sink(dir);
  publish_stream_with_rtt(sink, 0, v0_rtts);
  publish_stream_with_rtt(sink, 1, v1_rtts);

  FleetCollector collector(offline_config(dir, 2));
  collector.run();
  ASSERT_TRUE(collector.quarantined().empty());

  // Reference: one histogram fed every sample directly — what a single
  // collector observing the whole fleet would have built.
  analytics::LogHistogram reference;
  for (const std::uint64_t rtt : v0_rtts) reference.add(rtt);
  for (const std::uint64_t rtt : v1_rtts) reference.add(rtt);

  std::uint64_t contributors = 0;
  const analytics::LogHistogram merged =
      collector.merged_rtt_histogram(&contributors);
  EXPECT_EQ(contributors, 2u);
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.min(), reference.min());
  EXPECT_EQ(merged.max(), reference.max());
  EXPECT_EQ(merged.bins(), reference.bins());  // exact, not approximate
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(merged.quantile(q), reference.quantile(q)) << "q=" << q;
  }

  // The quantile block renders, and the whole report — quantiles
  // included — is byte-stable across independent collections.
  const std::string report = collector.report_text();
  EXPECT_NE(report.find("fleet_rtt_samples_total 5"), std::string::npos);
  EXPECT_NE(report.find("fleet_rtt_ns{quantile=\"0.5\"}"),
            std::string::npos);
  FleetCollector again(offline_config(dir, 2));
  again.run();
  EXPECT_EQ(again.report_text(), report);
}

TEST(FleetCollectorRtt, HistogramCountMismatchQuarantines) {
  const std::string dir = fresh_dir("rtt_mismatch");
  SpoolSink sink(dir);
  analytics::LogHistogram hist;
  hist.add(75'000);
  VantageExporter exporter(vantage_config(0, 200), sink);
  ASSERT_TRUE(exporter.publish_manifest());
  // The stats count 10 samples; the histogram carries mass for 1. A
  // frame that disagrees with itself is quarantined, not averaged in.
  ASSERT_TRUE(exporter.publish_epoch(1, 100, clean_stats(100, 10), &hist));
  ASSERT_TRUE(exporter.publish_final(2, 200, clean_stats(200, 20)));

  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  EXPECT_EQ(collector.quarantined_by(QuarantineReason::kStatsMismatch), 1u);
  EXPECT_EQ(collector.status(0).state, VantageState::kComplete);
  EXPECT_FALSE(collector.status(0).has_rtt_histogram);
}

// ---------------------------------------------------------------------------
// Spool incarnations: a restarted vantage must not eat its predecessor.
// ---------------------------------------------------------------------------

TEST(FleetSpool, IncarnationTagPreventsRestartOverwrite) {
  EXPECT_EQ(SpoolSink::file_name(3, 0, 7), SpoolSink::file_name(3, 7));
  EXPECT_EQ(SpoolSink::file_name(3, 2, 7), "v000003-i0002-p0000000007.dfrm");

  const std::string dir = fresh_dir("incarnation");
  const std::vector<std::uint8_t> first = {0xAA, 0xBB};
  const std::vector<std::uint8_t> second = {0xCC};
  // Both incarnations of vantage 0 count publish slots from zero — the
  // exact collision a restart produces.
  SpoolSink predecessor(dir, 0);
  ASSERT_TRUE(predecessor.publish(0, 0, first));
  SpoolSink successor(dir, 1);
  EXPECT_EQ(successor.incarnation(), 1u);
  ASSERT_TRUE(successor.publish(0, 0, second));

  const std::vector<SpoolEntry> entries = scan_spool(dir);
  ASSERT_EQ(entries.size(), 2u);  // nothing overwritten
  EXPECT_EQ(entries[0].incarnation, 0u);
  EXPECT_EQ(entries[1].incarnation, 1u);
  EXPECT_EQ(entries[0].vantage, 0u);
  EXPECT_EQ(entries[0].publish_index, 0u);
  EXPECT_EQ(entries[1].publish_index, 0u);
  // The predecessor's bytes survived the restart intact.
  std::vector<std::uint8_t> bytes;
  ASSERT_FALSE(load_frame_file(entries[0].path, &bytes));
  EXPECT_EQ(bytes, first);
}

TEST(FleetRetryPolicy, DeterministicBoundedJitteredSchedule) {
  RetryPolicy policy;
  policy.base_delay_ns = 1'000'000;
  policy.max_delay_ns = 64'000'000;
  for (std::uint64_t attempt = 0; attempt < 32; ++attempt) {
    const std::uint64_t delay = policy.delay_ns(attempt);
    EXPECT_EQ(delay, policy.delay_ns(attempt));  // pure in (policy, attempt)
    EXPECT_GE(delay, 1u);
    EXPECT_LE(delay, policy.max_delay_ns);
  }
  // The backoff actually grows before the cap...
  EXPECT_GT(policy.delay_ns(4), policy.delay_ns(0));
  // ...and jitter decorrelates consecutive attempts at the cap.
  EXPECT_NE(policy.delay_ns(30), policy.delay_ns(31));
  // A different seed yields a different schedule.
  RetryPolicy reseeded = policy;
  reseeded.seed ^= 0xABCD;
  EXPECT_NE(reseeded.delay_ns(3), policy.delay_ns(3));
}

TEST(FleetIdentity, RejectsTamperedReport) {
  const std::string dir = fresh_dir("tamper");
  SpoolSink sink(dir);
  publish_clean_stream(sink, 0);
  FleetCollector collector(offline_config(dir, 1));
  collector.run();
  std::string report = collector.report_text();
  const std::string honest = "fleet_processed_total{vantage=\"v0\"} 200";
  const auto at = report.find(honest);
  ASSERT_NE(at, std::string::npos);
  report.replace(at, honest.size(),
                 "fleet_processed_total{vantage=\"v0\"} 199");
  std::string error;
  EXPECT_FALSE(check_fleet_identity(report, &error));
  EXPECT_NE(error.find("v0"), std::string::npos);
}

}  // namespace
}  // namespace dart::fleet
