// Determinism of the sharded replay runtime (the ISSUE's provable claim):
// flow-affinity routing preserves per-flow packet order, so with per-flow
// monitor state the merged sample multiset and merged DartStats of an
// N-shard run are *exactly* the single-monitor reference — for every shard
// count, every seed, every run.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart {
namespace {

trace::Trace seeded_workload(std::uint64_t seed) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = 3000;
  config.duration = sec(8);
  return gen::build_campus(config);
}

// Unbounded tables: all monitor state is per-flow (64-bit-hash keyed), so
// shard-equivalence is exact. LegMode::kBoth and the idle timeout widen the
// exercised surface; both are per-flow decisions.
core::DartConfig reference_config() {
  core::DartConfig config;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = sec(2);
  return config;
}

struct Reference {
  std::vector<core::RttSample> samples;
  core::DartStats stats;
};

Reference single_monitor_reference(const trace::Trace& trace,
                                   const core::DartConfig& config) {
  Reference ref;
  core::DartMonitor dart(config, [&ref](const core::RttSample& sample) {
    ref.samples.push_back(sample);
  });
  dart.process_all(trace.packets());
  ref.stats = dart.stats();
  runtime::deterministic_order(ref.samples);
  return ref;
}

// Every DartStats counter is a per-packet-decision sum, so the merged
// counters equal the reference field for field; RuntimeHealth is the
// runtime's own accounting, which a bare monitor never touches.
void expect_stats_equal(core::DartStats got, const core::DartStats& want) {
  got.runtime = core::RuntimeHealth{};
  EXPECT_EQ(got, want);
}

class ShardedDeterminism : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDeterminism,
                         ::testing::Values(101u, 2022u, 0xDA27u));

TEST_P(ShardedDeterminism, MergedRunEqualsSingleMonitorReference) {
  const trace::Trace trace = seeded_workload(GetParam());
  const core::DartConfig dart_config = reference_config();
  const Reference ref = single_monitor_reference(trace, dart_config);
  ASSERT_GT(ref.samples.size(), 0U) << "workload must produce samples";

  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    runtime::ShardedConfig config;
    config.shards = shards;
    runtime::ShardedMonitor sharded(config, dart_config);
    sharded.process_all(trace.packets());
    sharded.finish();

    const std::vector<core::RttSample> merged = sharded.merged_samples();
    EXPECT_EQ(merged, ref.samples)
        << "sample multiset diverged at " << shards << " shards";
    expect_stats_equal(sharded.merged_stats(), ref.stats);
  }
}

TEST_P(ShardedDeterminism, RepeatedRunsAreIdentical) {
  // Thread interleaving must never leak into results: two 4-shard runs of
  // the same input are bit-identical.
  const trace::Trace trace = seeded_workload(GetParam() ^ 0xABCD);
  const core::DartConfig dart_config = reference_config();

  std::vector<core::RttSample> first;
  for (int run = 0; run < 2; ++run) {
    runtime::ShardedConfig config;
    config.shards = 4;
    runtime::ShardedMonitor sharded(config, dart_config);
    sharded.process_all(trace.packets());
    sharded.finish();
    if (run == 0) {
      first = sharded.merged_samples();
    } else {
      EXPECT_EQ(sharded.merged_samples(), first);
    }
  }
}

TEST(ShardedRouting, BothDirectionsSameShard) {
  runtime::ShardRouter router(8, 0x1234);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    FourTuple tuple;
    tuple.src_ip = Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())};
    tuple.dst_ip = Ipv4Addr{static_cast<std::uint32_t>(rng.next_u64())};
    tuple.src_port = static_cast<std::uint16_t>(rng.next_u64());
    tuple.dst_port = static_cast<std::uint16_t>(rng.next_u64());
    EXPECT_EQ(router.route(tuple), router.route(tuple.reversed()));
    EXPECT_LT(router.route(tuple), 8U);
  }
}

TEST(ShardedMerge, StatsSumAcrossShards) {
  const trace::Trace trace = seeded_workload(55);
  runtime::ShardedConfig config;
  config.shards = 4;
  runtime::ShardedMonitor sharded(config, reference_config());
  sharded.process_all(trace.packets());
  sharded.finish();

  core::DartStats manual;
  std::size_t sample_total = 0;
  for (std::uint32_t i = 0; i < sharded.shards(); ++i) {
    manual += sharded.shard_stats(i);
    sample_total += sharded.shard_samples(i).size();
  }
  const core::DartStats merged = sharded.merged_stats();
  EXPECT_EQ(merged.packets_processed, manual.packets_processed);
  EXPECT_EQ(merged.samples, manual.samples);
  EXPECT_EQ(merged.samples, sample_total);
  EXPECT_EQ(sharded.merged_samples().size(), sample_total);
}

TEST(ShardedEdge, TinyBatchesAndQueues) {
  // Pathological handoff geometry (batch of 1, 1-batch ring) must only be
  // slow, never wrong.
  const trace::Trace trace = seeded_workload(77);
  const Reference ref =
      single_monitor_reference(trace, reference_config());

  runtime::ShardedConfig config;
  config.shards = 3;  // non-power-of-two
  config.batch_size = 1;
  config.queue_batches = 1;
  runtime::ShardedMonitor sharded(config, reference_config());
  sharded.process_all(trace.packets());
  sharded.finish();
  EXPECT_EQ(sharded.merged_samples(), ref.samples);
}

TEST(ShardedEdge, EmptyStream) {
  runtime::ShardedConfig config;
  config.shards = 4;
  runtime::ShardedMonitor sharded(config, core::DartConfig{});
  sharded.finish();
  EXPECT_TRUE(sharded.merged_samples().empty());
  EXPECT_EQ(sharded.merged_stats().packets_processed, 0U);
}

}  // namespace
}  // namespace dart
