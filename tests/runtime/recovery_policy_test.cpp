// ShardedMonitor's recovery policy under fault-free conditions: turning on
// checkpoints and a restart budget must change nothing a run reports —
// same routing, same per-shard results, same histogram — while cutting
// checkpoints at a deterministic barrier cadence. The crash-path behavior
// lives in recovery_chaos_test.cpp (fault-injection builds); here we pin
// the no-fault contract and the coordinator's fencing rules, which must
// hold long before anything crashes.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "runtime/checkpoint_coordinator.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"

namespace dart {
namespace {

using runtime_check::expect_histogram_of_samples;

trace::Trace workload(std::uint64_t seed) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = 400;
  config.duration = sec(3);
  return gen::build_campus(config);
}

core::DartConfig monitor_config() {
  core::DartConfig config;
  config.rt_idle_timeout = sec(2);
  return config;
}

runtime::ShardedConfig supervised_config() {
  runtime::ShardedConfig config;
  config.shards = 4;
  config.batch_size = 64;
  config.queue_batches = 64;
  config.overload.shed_deadline_ns = sec(30);
  config.restart_budget = 3;
  return config;
}

std::vector<core::RttSample> reference_samples(const trace::Trace& trace) {
  return runtime_check::single_monitor_samples(monitor_config(),
                                               trace.packets());
}

TEST(Supervisor, CleanRunMatchesSingleMonitor) {
  const trace::Trace trace = workload(1);
  runtime::ShardedConfig config = supervised_config();
  config.checkpoint.interval_packets = 512;
  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  const core::DartStats merged = supervisor.merged_stats();
  const core::RuntimeHealth health = supervisor.health();
  EXPECT_EQ(merged.packets_processed, trace.packets().size());
  EXPECT_EQ(health.shed_packets, 0U);
  EXPECT_EQ(health.abandoned_packets, 0U);
  EXPECT_EQ(health.lost_to_crash, 0U);
  EXPECT_EQ(health.workers_killed, 0U);
  EXPECT_EQ(health.recovered, 0U);
  EXPECT_GT(supervisor.checkpoints_cut(), 0U);

  // Committed samples — barrier commits plus the final worker's trailing
  // samples — reconstruct the full sample stream, and so does the
  // histogram committed alongside them.
  EXPECT_EQ(supervisor.merged_samples(), reference_samples(trace));
  expect_histogram_of_samples(supervisor);
}

// Policy equivalence: a fault-free run with checkpoints and a restart
// budget equals the default-config run in every per-shard result.
TEST(Supervisor, MatchesShardedMonitorRun) {
  const trace::Trace trace = workload(2);

  runtime::ShardedConfig sharded_config;
  sharded_config.shards = 4;
  sharded_config.batch_size = 64;
  sharded_config.queue_batches = 64;
  runtime::ShardedMonitor sharded(sharded_config, monitor_config());
  sharded.process_all(trace.packets());
  sharded.finish();

  runtime::ShardedConfig config = sharded_config;
  config.checkpoint.interval_packets = 777;  // odd cadence on purpose
  config.restart_budget = 3;
  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  EXPECT_GT(supervisor.checkpoints_cut(), 0U);
  EXPECT_EQ(sharded.checkpoints_cut(), 0U);
  EXPECT_EQ(supervisor.merged_stats().packets_processed,
            sharded.merged_stats().packets_processed);
  EXPECT_EQ(supervisor.merged_stats().samples,
            sharded.merged_stats().samples);
  for (std::uint32_t i = 0; i < sharded.shards(); ++i) {
    // RuntimeHealth's backpressure counters are wall-clock noise; every
    // monitor counter and the coverage accounting must match exactly.
    core::DartStats got = supervisor.shard_stats(i);
    core::DartStats want = sharded.shard_stats(i);
    EXPECT_EQ(got.runtime.shed_packets, want.runtime.shed_packets);
    EXPECT_EQ(got.runtime.abandoned_packets, 0U);
    EXPECT_EQ(got.runtime.lost_to_crash, 0U);
    got.runtime = want.runtime = core::RuntimeHealth{};
    EXPECT_EQ(got, want) << "shard " << i;
    EXPECT_EQ(supervisor.shard_samples(i).samples(),
              sharded.shard_samples(i).samples())
        << "shard " << i;
  }
  EXPECT_EQ(supervisor.merged_samples(), sharded.merged_samples());
  runtime_check::expect_same_histogram(supervisor.rtt_histogram(),
                                       sharded.rtt_histogram());
  expect_histogram_of_samples(supervisor);
}

TEST(Supervisor, PacketBarrierCadenceIsExact) {
  const trace::Trace trace = workload(3);
  runtime::ShardedConfig config = supervised_config();
  config.shards = 1;  // single stream: the cadence arithmetic is exact
  config.checkpoint.interval_packets = 256;
  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  const std::uint64_t n = trace.packets().size();
  EXPECT_EQ(supervisor.checkpoints_cut(), n / 256);
  // The latest image's replay cursor sits on the last barrier.
  core::SnapshotMeta meta;
  ASSERT_TRUE(supervisor.coordinator().latest(0, nullptr, &meta));
  EXPECT_EQ(meta.cursor, (n / 256) * 256);
  EXPECT_EQ(meta.epoch, n / 256);
  // Consistency invariant: the image's sample cursor counts exactly the
  // samples committed at that point — never more than the final total.
  EXPECT_LE(meta.sample_cursor, supervisor.merged_stats().samples);
  EXPECT_EQ(supervisor.merged_samples(), reference_samples(trace));
  expect_histogram_of_samples(supervisor);
}

TEST(Supervisor, VirtualTimeBarriersFollowTheTraceClock) {
  const trace::Trace trace = workload(4);
  runtime::ShardedConfig config = supervised_config();
  config.shards = 1;
  config.checkpoint.interval_vtime_ns = msec(500);

  auto run = [&] {
    runtime::ShardedMonitor supervisor(config, monitor_config());
    supervisor.process_all(trace.packets());
    supervisor.finish();
    expect_histogram_of_samples(supervisor);
    return supervisor.checkpoints_cut();
  };
  const std::uint64_t first = run();
  const std::uint64_t second = run();
  // ~3 s of trace at a 500 ms cadence: several cuts, and — because the
  // trigger is packet timestamps, not wall time — identical run to run.
  EXPECT_GE(first, 4U);
  EXPECT_EQ(first, second);
}

TEST(Supervisor, DisabledCheckpointingStillMergesEverything) {
  const trace::Trace trace = workload(5);
  runtime::ShardedMonitor supervisor(supervised_config(), monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  EXPECT_EQ(supervisor.checkpoints_cut(), 0U);
  EXPECT_EQ(supervisor.merged_stats().packets_processed,
            trace.packets().size());
  EXPECT_EQ(supervisor.merged_samples(), reference_samples(trace));
}

// The policy with raw samples off: barrier commits carry the histogram
// alone, and the run reports the kept run's distribution bin for bin.
TEST(Supervisor, DroppedSamplesKeepTheHistogram) {
  const trace::Trace trace = workload(6);
  runtime::ShardedConfig config = supervised_config();
  config.checkpoint.interval_packets = 512;
  const auto kept =
      runtime_check::finished_run(config, monitor_config(), trace.packets());
  config.keep_samples = false;
  const auto dropped =
      runtime_check::finished_run(config, monitor_config(), trace.packets());
  EXPECT_GT(dropped->checkpoints_cut(), 0U);
  EXPECT_EQ(dropped->checkpoints_cut(), kept->checkpoints_cut());
  EXPECT_EQ(dropped->merged_stats().packets_processed, trace.packets().size());
  runtime_check::expect_samples_dropped(*dropped, *kept);
}

// The coordinator's invariant, committed_sample_count == meta.sample_cursor
// after every accepted image, read live between barriers: the stream is
// fed a barrier interval at a time, and each cut is awaited before the
// next interval is routed, so nothing commits while the two are read.
TEST(Supervisor, CommittedCountMatchesSampleCursor) {
  const trace::Trace trace = workload(7);
  const std::span<const PacketRecord> packets(trace.packets());
  constexpr std::size_t kInterval = 256;
  for (const bool keep : {true, false}) {
    SCOPED_TRACE(keep ? "samples kept" : "samples dropped");
    runtime::ShardedConfig config = supervised_config();
    config.shards = 1;
    config.checkpoint.interval_packets = kInterval;
    config.keep_samples = keep;
    runtime::ShardedMonitor supervisor(config, monitor_config());
    const runtime::CheckpointCoordinator& coordinator =
        supervisor.coordinator();
    std::uint64_t cuts = 0;
    std::uint64_t last_cursor = 0;
    for (std::size_t at = 0; at + kInterval <= packets.size();
         at += kInterval) {
      supervisor.process_all(packets.subspan(at, kInterval));
      ++cuts;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (coordinator.checkpoints_cut(0) < cuts &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      ASSERT_EQ(coordinator.checkpoints_cut(0), cuts);
      core::SnapshotMeta meta;
      ASSERT_TRUE(coordinator.latest(0, nullptr, &meta));
      EXPECT_EQ(meta.cursor, at + kInterval);
      EXPECT_EQ(coordinator.committed_sample_count(0), meta.sample_cursor);
      last_cursor = meta.sample_cursor;
    }
    ASSERT_GT(cuts, 4U);
    EXPECT_GT(last_cursor, 0U);
    supervisor.finish();
  }
}

analytics::SampleLog log_of(std::size_t samples) {
  analytics::SampleLog log;
  for (std::size_t i = 0; i < samples; ++i) log.append(core::RttSample{});
  return log;
}

analytics::LogHistogram histogram_of(std::size_t samples) {
  return runtime_check::histogram_of(log_of(samples).samples());
}

TEST(CoordinatorFencing, StaleIncarnationCannotCommit) {
  runtime::CheckpointCoordinator coordinator(2);
  const std::uint64_t first = coordinator.begin_incarnation(0);

  core::SnapshotMeta meta;
  meta.epoch = 1;
  meta.cursor = 100;
  core::CheckpointImage image;
  image.bytes = {1, 2, 3};
  EXPECT_TRUE(coordinator.commit(0, first, core::CheckpointImage{image}, meta,
                                 log_of(1), histogram_of(1)));
  EXPECT_EQ(coordinator.committed_sample_count(0), 1U);
  EXPECT_EQ(coordinator.checkpoints_cut(0), 1U);

  // Ownership moves to a successor; the old incarnation becomes a zombie.
  const std::uint64_t second = coordinator.begin_incarnation(0);
  ASSERT_NE(first, second);

  core::SnapshotMeta stale;
  stale.epoch = 2;
  stale.cursor = 999;
  core::CheckpointImage stale_image;
  stale_image.bytes = {9, 9, 9};
  EXPECT_FALSE(coordinator.commit(0, first,
                                  core::CheckpointImage{stale_image}, stale,
                                  log_of(2), histogram_of(2)));
  EXPECT_FALSE(coordinator.commit(0, first, core::CheckpointImage{}, {},
                                  log_of(1), histogram_of(1)));
  // Nothing the zombie sent landed.
  EXPECT_EQ(coordinator.committed_sample_count(0), 1U);
  EXPECT_EQ(coordinator.checkpoints_cut(0), 1U);
  core::CheckpointImage latest;
  core::SnapshotMeta latest_meta;
  ASSERT_TRUE(coordinator.latest(0, &latest, &latest_meta));
  EXPECT_EQ(latest.bytes, image.bytes);
  EXPECT_EQ(latest_meta.cursor, 100U);

  // The rightful owner still commits fine, and an empty image commits
  // samples without replacing the stored checkpoint.
  EXPECT_TRUE(coordinator.commit(0, second, core::CheckpointImage{}, {},
                                 log_of(1), histogram_of(1)));
  EXPECT_EQ(coordinator.committed_sample_count(0), 2U);
  EXPECT_EQ(coordinator.checkpoints_cut(0), 1U);

  // Sealing fences the current owner too and hands over exactly the
  // committed samples and histogram.
  analytics::SampleLog sealed;
  analytics::LogHistogram sealed_rtt;
  coordinator.seal(0, &sealed, &sealed_rtt);
  EXPECT_EQ(sealed.size(), 2U);
  EXPECT_EQ(sealed_rtt.count(), 2U);
  EXPECT_FALSE(coordinator.commit(0, second, core::CheckpointImage{}, {},
                                  log_of(1), histogram_of(1)));

  // Other shards are independent.
  EXPECT_EQ(coordinator.committed_sample_count(1), 0U);
  EXPECT_EQ(coordinator.begin_incarnation(1), 1U);
}

}  // namespace
}  // namespace dart
