// Differential hardening: ShardedMonitor vs plain DartMonitor side-by-side
// on adversarial garbage (the fuzz_test generator's distribution — tiny
// tuple pool so lookups collide, random seq/ack/flags, both directions).
// With per-flow (unbounded) state the two must agree exactly; with bounded
// tables they must both survive with invariants intact even though
// collision patterns differ per shard. Baselines ride behind the same
// interface via BasicReplayMonitor.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baseline/strawman.hpp"
#include "baseline/tcptrace.hpp"
#include "core/dart_monitor.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"

namespace dart {
namespace {

using runtime_check::garbage;

class ShardedDifferential : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferential,
                         ::testing::Values(1u, 42u, 0xF00Du));

TEST_P(ShardedDifferential, UnboundedDartAgreesExactlyOnGarbage) {
  const auto packets = garbage(GetParam(), 40000);

  core::DartConfig config;  // unbounded: per-flow state, exact equivalence
  config.include_syn = true;
  config.leg = core::LegMode::kBoth;

  const std::vector<core::RttSample> reference =
      runtime_check::single_monitor_samples(config, packets);

  for (std::uint32_t shards : {2u, 4u, 8u}) {
    runtime::ShardedConfig sharded_config;
    sharded_config.shards = shards;
    runtime::ShardedMonitor sharded(sharded_config, config);
    sharded.process_all(packets);
    sharded.finish();

    EXPECT_EQ(sharded.merged_stats().samples, reference.size());
    EXPECT_EQ(sharded.merged_samples(), reference)
        << "garbage-stream divergence at " << shards << " shards";
  }
}

TEST_P(ShardedDifferential, BoundedDartSurvivesAndKeepsInvariants) {
  // Bounded tables: shards see different collision patterns, so exact
  // equality is off the table — but every per-shard monitor must keep the
  // same invariants the single-monitor fuzz test asserts, and every packet
  // must be processed exactly once.
  const auto packets = garbage(GetParam() ^ 0x5A5A, 40000);

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

  runtime::ShardedConfig sharded_config;
  sharded_config.shards = 4;
  runtime::ShardedMonitor sharded(sharded_config, config);
  sharded.process_all(packets);
  sharded.finish();

  const core::DartStats merged = sharded.merged_stats();
  EXPECT_EQ(merged.packets_processed, packets.size());
  for (std::uint32_t i = 0; i < sharded.shards(); ++i) {
    const core::DartStats s = sharded.shard_stats(i);
    EXPECT_EQ(s.pt_evictions,
              (s.recirculations - s.dual_role_recirculations) +
                  s.drops_budget + s.drops_cycle + s.drops_useless +
                  s.drops_shadow)
        << "eviction ledger broken in shard " << i;
    EXPECT_EQ(sharded.shard_samples(i).size(), s.samples);
  }
  for (const core::RttSample& sample : sharded.merged_samples()) {
    EXPECT_GT(sample.ack_ts, sample.seq_ts)
        << "RTT samples must be strictly positive";
  }
}

TEST_P(ShardedDifferential, ShardedBaselinesAgreeWithSingleInstance) {
  // Baselines behind the same interface: a sharded Strawman (per-flow map
  // mode) and TcpTrace must reproduce their single-instance sample counts.
  const auto packets = garbage(GetParam() ^ 0x777, 20000);

  std::uint64_t tt_reference = 0;
  baseline::TcpTrace tcptrace(
      baseline::TcpTraceConfig{},
      [&](const core::RttSample&) { ++tt_reference; });
  tcptrace.process_all(packets);

  runtime::ShardedConfig sharded_config;
  sharded_config.shards = 4;

  runtime::ShardedMonitor sharded_tt(
      sharded_config, [](std::uint32_t, core::SampleCallback on_sample) {
        return runtime::make_basic_replay_monitor(baseline::TcpTrace(
            baseline::TcpTraceConfig{}, std::move(on_sample)));
      });
  sharded_tt.process_all(packets);
  sharded_tt.finish();
  std::size_t tt_sharded = 0;
  for (std::uint32_t i = 0; i < sharded_tt.shards(); ++i) {
    tt_sharded += sharded_tt.shard_samples(i).size();
  }
  EXPECT_EQ(tt_sharded, tt_reference);

  // Strawman's single bounded table is shared across flows, so sharding
  // legitimately changes collision patterns and the single-instance counts
  // need not match. The concurrent run must instead match a *serially
  // partitioned* reference: the same router feeding four Strawman
  // instances one after the other. This isolates the runtime machinery
  // (routing, batching, threading) from monitor semantics.
  baseline::StrawmanConfig st_config;
  st_config.table_size = 1 << 10;  // force collisions
  const runtime::ShardRouter router(sharded_config.shards,
                                    sharded_config.route_seed);
  std::vector<std::uint64_t> st_reference(sharded_config.shards, 0);
  {
    std::vector<std::unique_ptr<baseline::Strawman>> partitions;
    for (std::uint32_t i = 0; i < sharded_config.shards; ++i) {
      partitions.push_back(std::make_unique<baseline::Strawman>(
          st_config,
          [&st_reference, i](const core::RttSample&) { ++st_reference[i]; }));
    }
    for (const PacketRecord& packet : packets) {
      partitions[router.route(packet.tuple)]->process(packet);
    }
  }

  runtime::ShardedMonitor sharded_st(
      sharded_config,
      [&st_config](std::uint32_t, core::SampleCallback on_sample) {
        return runtime::make_basic_replay_monitor(
            baseline::Strawman(st_config, std::move(on_sample)));
      });
  sharded_st.process_all(packets);
  sharded_st.finish();
  for (std::uint32_t i = 0; i < sharded_st.shards(); ++i) {
    EXPECT_EQ(sharded_st.shard_samples(i).size(), st_reference[i])
        << "concurrent shard " << i << " diverged from serial partition";
  }
}

TEST(ShardedDifferentialEdge, FinishWithoutInputAndDoubleFinish) {
  runtime::ShardedConfig config;
  config.shards = 2;
  runtime::ShardedMonitor sharded(config, core::DartConfig{});
  sharded.finish();
  // The batch-era second finish() was a silent no-op; the daemon lifecycle
  // fix made it a typed error (see lifecycle_test.cpp for the full
  // contract). Results from the first finish() stay settled.
  EXPECT_THROW(sharded.finish(), runtime::LifecycleError);
  EXPECT_EQ(sharded.merged_stats().packets_processed, 0U);
}

}  // namespace
}  // namespace dart
