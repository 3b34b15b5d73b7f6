// Property tests for the batched hot path: however the packet stream is
// cut into batches — fixed widths, the ring-batch capacity, random
// mid-flow splits, interleaved scalar calls — the monitor's observable
// behaviour and end-state snapshot must be bit-identical to the scalar
// reference, through both process_batch and the prefetched wavefront it
// dispatches to above its footprint budget (driven directly here: these
// stress tables are far below it). Also covers the runtime hazards
// batching could introduce — a batch split straddling a checkpoint epoch
// barrier, a forced-shed window (fault-injected worker kill), and the
// partial-final-batch flush at shutdown, the mirror of the MinFilter
// partial-tail bug class — by holding each shard, with workers on either
// entry point, to a scalar replay of its own stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "core/packet_batch.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"

#if defined(DART_FAULT_INJECTION)
#include "runtime/fault_injection.hpp"
#endif

namespace dart {
namespace {

using runtime_check::garbage;

core::DartConfig stress_config() {
  core::DartConfig config;
  config.rt_size = 1 << 8;
  config.pt_size = 1 << 8;
  config.pt_stages = 4;
  config.max_recirculations = 4;
  config.include_syn = true;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = msec(500);
  config.shadow_rt = true;
  config.shadow_sync_interval = 64;
  return config;
}

struct RunResult {
  std::vector<core::RttSample> samples;
  core::DartStats stats;
  core::CheckpointImage image;
};

// The two batch entry points every property runs through.
using BatchEntry = void (core::DartMonitor::*)(std::span<const PacketRecord>);
struct NamedEntry {
  const char* name;
  BatchEntry entry;
};
constexpr NamedEntry kBatchEntries[] = {
    {"process_batch", &core::DartMonitor::process_batch},
    {"process_prefetched", &core::DartMonitor::process_prefetched},
};

// Run the stream cut into batches at the given boundaries (cumulative
// split points); an empty list means one batch call over everything.
RunResult run_with_splits(const core::DartConfig& config,
                          std::span<const PacketRecord> packets,
                          const std::vector<std::size_t>& splits,
                          BatchEntry entry) {
  RunResult result;
  core::DartMonitor monitor(config, [&](const core::RttSample& sample) {
    result.samples.push_back(sample);
  });
  std::size_t start = 0;
  for (const std::size_t split : splits) {
    (monitor.*entry)(packets.subspan(start, split - start));
    start = split;
  }
  (monitor.*entry)(packets.subspan(start));
  result.stats = monitor.stats();
  result.image = monitor.snapshot(core::SnapshotMeta{});
  return result;
}

RunResult run_scalar(const core::DartConfig& config,
                     std::span<const PacketRecord> packets) {
  RunResult result;
  core::DartMonitor monitor(config, [&](const core::RttSample& sample) {
    result.samples.push_back(sample);
  });
  monitor.process_all(packets);
  result.stats = monitor.stats();
  result.image = monitor.snapshot(core::SnapshotMeta{});
  return result;
}

std::vector<std::size_t> fixed_width_splits(std::size_t count,
                                            std::size_t width) {
  std::vector<std::size_t> splits;
  for (std::size_t at = width; at < count; at += width) splits.push_back(at);
  return splits;
}

class BatchFuzz : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, BatchFuzz,
                         ::testing::Values(1u, 42u, 0xF00Du));

TEST_P(BatchFuzz, FixedBatchWidthsNeverChangeOutput) {
  // Garbage streams rarely produce RTT samples (random 64-bit seq/ack
  // almost never pair up) — the property under test is end-state and
  // sample-stream *equality*, not sample yield; the differential suite's
  // realistic workloads cover yield.
  const auto packets = garbage(GetParam(), 30000);
  const RunResult reference = run_scalar(stress_config(), packets);

  // 1 and 2 are the degenerate tiles; 7 never divides anything; 64 is the
  // shadow sync interval (tiles straddle shadow flushes); 256 is both the
  // PacketBatch tile and the runtime's ring-batch capacity; 1000 leaves a
  // ragged partial final tile.
  for (const NamedEntry& entry : kBatchEntries) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}, std::size_t{64},
                                    core::PacketBatch::kCapacity,
                                    std::size_t{1000}}) {
      const RunResult batched =
          run_with_splits(stress_config(), packets,
                          fixed_width_splits(packets.size(), width),
                          entry.entry);
      EXPECT_EQ(reference.stats, batched.stats)
          << entry.name << " width " << width;
      EXPECT_EQ(reference.samples, batched.samples)
          << entry.name << " width " << width;
      EXPECT_EQ(reference.image.bytes, batched.image.bytes)
          << entry.name << " width " << width << ": snapshots diverged";
    }
  }
}

TEST_P(BatchFuzz, RandomMidFlowSplitsNeverChangeOutput) {
  const auto packets = garbage(GetParam() ^ 0xBA7C4, 30000);
  const RunResult reference = run_scalar(stress_config(), packets);

  Rng rng(GetParam() * 0x9E3779B9u + 7);
  for (int round = 0; round < 4; ++round) {
    // Random cut points: with a 16-host tuple pool, essentially every cut
    // lands mid-flow for many flows at once.
    std::vector<std::size_t> splits;
    std::size_t at = 0;
    while (at < packets.size()) {
      at += static_cast<std::size_t>(rng.uniform_int(1, 700));
      if (at >= packets.size()) break;
      splits.push_back(at);
    }
    for (const NamedEntry& entry : kBatchEntries) {
      const RunResult batched =
          run_with_splits(stress_config(), packets, splits, entry.entry);
      EXPECT_EQ(reference.stats, batched.stats)
          << entry.name << " round " << round;
      EXPECT_EQ(reference.samples, batched.samples)
          << entry.name << " round " << round;
      EXPECT_EQ(reference.image.bytes, batched.image.bytes)
          << entry.name << " round " << round << ": snapshots diverged";
    }
  }
}

TEST_P(BatchFuzz, InterleavedScalarAndBatchedCallsMatch) {
  const auto packets = garbage(GetParam() ^ 0x17E4, 20000);
  const RunResult reference = run_scalar(stress_config(), packets);

  for (const NamedEntry& entry : kBatchEntries) {
    RunResult mixed;
    core::DartMonitor monitor(stress_config(),
                              [&](const core::RttSample& sample) {
                                mixed.samples.push_back(sample);
                              });
    Rng rng(GetParam() + 99);
    std::size_t at = 0;
    while (at < packets.size()) {
      if (rng.bernoulli(0.3)) {
        monitor.process(packets[at]);
        ++at;
      } else {
        const std::size_t run_len = std::min(
            packets.size() - at,
            static_cast<std::size_t>(rng.uniform_int(1, 500)));
        (monitor.*entry.entry)(
            std::span<const PacketRecord>(packets).subspan(at, run_len));
        at += run_len;
      }
    }
    mixed.stats = monitor.stats();
    mixed.image = monitor.snapshot(core::SnapshotMeta{});

    EXPECT_EQ(reference.stats, mixed.stats) << entry.name;
    EXPECT_EQ(reference.samples, mixed.samples) << entry.name;
    EXPECT_EQ(reference.image.bytes, mixed.image.bytes) << entry.name;
  }
}

// Regression for the partial-tail bug class: a final ring batch smaller
// than batch_size (router pending buffer drained at finish()) must be
// flushed into the workers, not dropped. With per-flow state the merged
// run must reproduce the single-monitor reference exactly, packet counts
// included.
TEST_P(BatchFuzz, PartialFinalBatchIsFlushedNotDropped) {
  // 10007 is prime: never a multiple of any batch_size, so the run always
  // ends on a ragged partial batch.
  const auto packets = garbage(GetParam() ^ 0x9A11, 10007);

  core::DartConfig dart_config;  // unbounded: exact equivalence
  dart_config.include_syn = true;
  dart_config.leg = core::LegMode::kBoth;

  const std::vector<core::RttSample> reference =
      runtime_check::single_monitor_samples(dart_config, packets);

  runtime::ShardedConfig config;
  config.shards = 3;
  config.batch_size = 64;
  const auto refs =
      runtime_check::per_shard_reference(dart_config, packets, config);
  for (const runtime_check::WorkerLoop& loop :
       runtime_check::worker_loops(dart_config)) {
    runtime::ShardedMonitor sharded(config, loop.factory);
    sharded.process_all(packets);
    sharded.finish();

    EXPECT_EQ(sharded.merged_stats().packets_processed, packets.size())
        << loop.name << ": the partial final batch was not flushed";
    EXPECT_EQ(sharded.health().shed_packets, 0U) << loop.name;
    EXPECT_EQ(sharded.merged_samples(), reference) << loop.name;
    for (std::uint32_t i = 0; i < config.shards; ++i) {
      runtime_check::expect_shard_matches(
          sharded, i, refs[i], std::string("partial tail ") + loop.name);
    }
  }
}

// A batch split straddling a checkpoint epoch barrier: the runtime
// interleaves barrier markers between ring batches, so with a batch width
// that never divides the barrier interval, every epoch boundary lands
// mid-batch-stream. Each shard must still match a scalar replay of its
// stream, and cut exactly one checkpoint per full interval it received.
TEST_P(BatchFuzz, BarrierStraddlingBatchesMatchAcrossWorkerModes) {
  const auto packets = garbage(GetParam() ^ 0xEB0C, 20000);

  core::DartConfig dart_config;
  dart_config.include_syn = true;
  dart_config.leg = core::LegMode::kBoth;

  runtime::ShardedConfig config;
  config.shards = 2;
  config.batch_size = 7;  // never divides the barrier interval
  config.checkpoint.interval_packets = 1000;
  const auto refs =
      runtime_check::per_shard_reference(dart_config, packets, config);
  for (const runtime_check::WorkerLoop& loop :
       runtime_check::worker_loops(dart_config)) {
    runtime::ShardedMonitor sharded(config, loop.factory);
    sharded.process_all(packets);
    sharded.finish();

    std::uint64_t expected_cuts = 0;
    for (std::uint32_t i = 0; i < config.shards; ++i) {
      runtime_check::expect_shard_matches(
          sharded, i, refs[i], std::string("barriers ") + loop.name);
      expected_cuts += refs[i].packets.size() / 1000;
    }
    EXPECT_GT(sharded.checkpoints_cut(), 0U) << loop.name;
    EXPECT_EQ(sharded.checkpoints_cut(), expected_cuts) << loop.name;
    const core::RuntimeHealth health = sharded.health();
    EXPECT_EQ(health.shed_packets, 0U) << loop.name;
    EXPECT_EQ(health.abandoned_packets, 0U) << loop.name;
    EXPECT_EQ(health.lost_to_crash, 0U) << loop.name;
    runtime_check::expect_histogram_of_samples(sharded);
  }
}

#if defined(DART_FAULT_INJECTION)
// A forced-shed window: kill one worker mid-run so the router sheds the
// remainder of its shard's stream. The packets processed before the kill
// are a deterministic prefix (the fault fires on the worker's batch
// clock), so the killed shard must match a scalar replay of exactly that
// prefix, the healthy shard its whole stream, and shed absorbs exactly
// the rest.
TEST_P(BatchFuzz, ForcedShedWindowMatchesAcrossWorkerModes) {
  const auto packets = garbage(GetParam() ^ 0x5EED, 20000);

  core::DartConfig dart_config;
  dart_config.include_syn = true;
  dart_config.leg = core::LegMode::kBoth;

  constexpr std::uint64_t kPrefix = 3 * 16;
  for (const runtime_check::WorkerLoop& loop :
       runtime_check::worker_loops(dart_config)) {
    runtime::FaultPlan faults;
    faults.kill(0, 3);  // shard 0 dies after exactly 3 batches
    runtime::ShardedConfig config;
    config.shards = 2;
    config.batch_size = 16;
    config.faults = &faults;
    runtime::ShardedMonitor sharded(config, loop.factory);
    sharded.process_all(packets);
    sharded.finish();

    const auto refs = runtime_check::per_shard_reference(
        dart_config, packets, config, /*limit=*/{kPrefix});
    EXPECT_EQ(sharded.shard_stats(0).packets_processed, kPrefix) << loop.name;
    for (std::uint32_t i = 0; i < config.shards; ++i) {
      runtime_check::expect_shard_matches(
          sharded, i, refs[i], std::string("forced shed ") + loop.name);
    }
    // The shed window is real, and it is exactly the killed shard's
    // unprocessed remainder.
    const core::RuntimeHealth health = sharded.health();
    EXPECT_GT(health.shed_packets, 0U) << loop.name;
    EXPECT_EQ(health.shed_packets, refs[0].packets.size() - kPrefix)
        << loop.name;
    EXPECT_EQ(health.workers_killed, 1U) << loop.name;
    EXPECT_EQ(sharded.merged_stats().packets_processed + health.shed_packets,
              packets.size())
        << loop.name;
  }
}
#endif  // DART_FAULT_INJECTION

}  // namespace
}  // namespace dart
