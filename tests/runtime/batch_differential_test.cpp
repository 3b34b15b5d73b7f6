// Differential proof that the batched SoA hot path is observably identical
// to the scalar per-packet path. This is the safety net under the repo's
// most correctness-critical loop: every scenario runs the same stream
// through DartMonitor::process_all (scalar reference), through
// DartMonitor::process_prefetched (the wavefront, driven directly because
// these test tables are under the footprint budget at which process_batch
// would pick it) and through DartMonitor::process_batch, and asserts
// byte-identical checkpoint
// snapshots (config, stats, RT, PT, shadow — the complete monitor state),
// identical sample streams *in emission order*, identical collapse /
// optimistic-ACK event streams, and — through the sharded runtime, with
// workers running either entry point — per-shard results identical to a
// scalar replay of each shard's stream, plus a deterministic telemetry
// export independent of the ring batching.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"

#if defined(DART_TELEMETRY)
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"
#endif

namespace dart {
namespace {

struct Scenario {
  const char* name;
  gen::CampusConfig campus;
};

gen::CampusConfig base_campus() {
  gen::CampusConfig config;
  config.seed = 0xDA27'0006;
  config.connections = 3000;
  config.duration = sec(5);
  return config;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;

  Scenario handshake{"handshake", base_campus()};
  handshake.campus.incomplete_fraction = 0.9;
  all.push_back(handshake);

  Scenario reorder{"reorder", base_campus()};
  reorder.campus.reorder_prob = 0.05;
  all.push_back(reorder);

  Scenario retransmit{"retransmit", base_campus()};
  retransmit.campus.loss_rate = 0.05;
  all.push_back(retransmit);

  Scenario wireless{"wireless-jitter", base_campus()};
  wireless.campus.wireless_fraction = 0.95;
  wireless.campus.wireless_internal_sigma = 2.2;
  wireless.campus.per_packet_jitter_sigma = 0.3;
  all.push_back(wireless);

  return all;
}

// The bounded config exercises every state machine the batch path touches:
// collisions in both tables, recirculation, shadow RT, idle timeout.
core::DartConfig bounded_config() {
  core::DartConfig config;
  config.rt_size = 1 << 10;
  config.pt_size = 1 << 10;
  config.pt_stages = 4;
  config.max_recirculations = 4;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = sec(2);
  config.shadow_rt = true;
  config.shadow_sync_interval = 64;
  return config;
}

// Non-power-of-two RT and PT stage sizes: SlotHash reduces with `%` here
// instead of a mask, so this keeps that branch covered end to end.
core::DartConfig odd_geometry_config() {
  core::DartConfig config = bounded_config();
  config.rt_size = 1000;
  config.pt_size = 3000;
  config.pt_stages = 3;
  return config;
}

core::DartConfig unbounded_config() {
  core::DartConfig config;
  config.leg = core::LegMode::kBoth;
  return config;
}

// Full observable trace of one monitor run: everything a caller could have
// seen, plus the complete end-state image.
struct RunTrace {
  std::vector<core::RttSample> samples;
  std::vector<core::CollapseEvent> collapses;
  std::vector<core::OptimisticAckEvent> optimistics;
  core::DartStats stats;
  core::CheckpointImage image;
};

enum class Path { kScalar, kBatched, kPrefetched };

RunTrace run(const core::DartConfig& config,
             const std::vector<PacketRecord>& packets, Path path) {
  RunTrace trace;
  core::DartMonitor monitor(config, [&](const core::RttSample& sample) {
    trace.samples.push_back(sample);
  });
  monitor.set_collapse_callback([&](const core::CollapseEvent& event) {
    trace.collapses.push_back(event);
  });
  monitor.set_optimistic_ack_callback(
      [&](const core::OptimisticAckEvent& event) {
        trace.optimistics.push_back(event);
      });
  switch (path) {
    case Path::kScalar:
      monitor.process_all(packets);
      break;
    case Path::kBatched:
      monitor.process_batch(packets);
      break;
    case Path::kPrefetched:
      monitor.process_prefetched(packets);
      break;
  }
  trace.stats = monitor.stats();
  trace.image = monitor.snapshot(core::SnapshotMeta{});
  return trace;
}

void expect_identical(const RunTrace& scalar, const RunTrace& batched,
                      const std::string& label);

// Both batch entry points against the scalar reference.
RunTrace expect_batch_paths_match(const core::DartConfig& config,
                                  const std::vector<PacketRecord>& packets,
                                  const std::string& label) {
  RunTrace scalar = run(config, packets, Path::kScalar);
  expect_identical(scalar, run(config, packets, Path::kBatched),
                   label + " [process_batch]");
  expect_identical(scalar, run(config, packets, Path::kPrefetched),
                   label + " [process_prefetched]");
  return scalar;
}

void expect_identical(const RunTrace& scalar, const RunTrace& batched,
                      const std::string& label) {
  EXPECT_EQ(scalar.stats, batched.stats) << label << ": stats diverged";
  EXPECT_EQ(scalar.samples, batched.samples)
      << label << ": sample stream diverged";
  EXPECT_EQ(scalar.collapses, batched.collapses)
      << label << ": collapse events diverged";
  EXPECT_EQ(scalar.optimistics, batched.optimistics)
      << label << ": optimistic-ACK events diverged";
  EXPECT_EQ(scalar.image.bytes, batched.image.bytes)
      << label << ": end-state snapshots are not byte-identical";
}

TEST(BatchDifferential, BoundedScenariosAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    const auto scalar = expect_batch_paths_match(
        bounded_config(), trace.packets(), scenario.name);
    ASSERT_GT(scalar.samples.size(), 0U)
        << scenario.name << ": scenario produced no samples to compare";
  }
}

TEST(BatchDifferential, UnboundedScenariosAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    expect_batch_paths_match(unbounded_config(), trace.packets(),
                             scenario.name);
  }
}

TEST(BatchDifferential, NonPowerOfTwoTablesAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    const auto scalar = expect_batch_paths_match(
        odd_geometry_config(), trace.packets(), scenario.name);
    ASSERT_GT(scalar.samples.size(), 0U)
        << scenario.name << ": scenario produced no samples to compare";
    ASSERT_GT(scalar.stats.pt_evictions, 0U)
        << scenario.name << ": no PT collisions exercised";
  }
}

TEST(BatchDifferential, SingleLegModesMatchScalar) {
  const auto trace = gen::build_campus(base_campus());
  for (const core::LegMode leg :
       {core::LegMode::kExternal, core::LegMode::kInternal}) {
    core::DartConfig config = bounded_config();
    config.leg = leg;
    expect_batch_paths_match(
        config, trace.packets(),
        leg == core::LegMode::kExternal ? "external" : "internal");
  }
}

TEST(BatchDifferential, SynInclusionMatchesScalar) {
  const auto trace = gen::build_campus(base_campus());
  core::DartConfig config = bounded_config();
  config.include_syn = true;
  expect_batch_paths_match(config, trace.packets(), "+SYN");
}

// process_batch picks its loop from the table footprint alone. The paper's
// bounded geometry (the perfbench workloads') is cache-resident and runs
// the scalar loop, as do dartd's unbounded maps; bench_throughput's
// hot_config() (RT 2^22, PT 2^23 in one stage, ~400 MB) outruns the cache
// and takes the wavefront. Asked of the config, so the test allocates
// neither.
TEST(BatchDifferential, ProcessBatchDispatchesOnTableFootprint) {
  core::DartConfig paper;
  paper.rt_size = std::size_t{1} << 16;
  paper.pt_size = std::size_t{1} << 14;
  paper.pt_stages = 4;
  EXPECT_LT(core::DartMonitor::table_bytes(paper), std::size_t{4} << 20);
  EXPECT_FALSE(core::DartMonitor::batch_prefetches(paper));
  core::DartConfig pressure = paper;  // both_legs_pressure's smaller PT
  pressure.pt_size = std::size_t{1} << 12;
  EXPECT_FALSE(core::DartMonitor::batch_prefetches(pressure));

  core::DartConfig hot;
  hot.rt_size = std::size_t{1} << 22;
  hot.pt_size = std::size_t{1} << 23;
  hot.pt_stages = 1;
  EXPECT_GT(core::DartMonitor::table_bytes(hot), std::size_t{256} << 20);
  EXPECT_TRUE(core::DartMonitor::batch_prefetches(hot));

  // Unbounded tables have no slot arrays to prefetch; dartd's monitors are
  // default-configured (DaemonConfig::dart), so both tables are unbounded.
  EXPECT_EQ(core::DartMonitor::table_bytes(unbounded_config()), 0U);
  EXPECT_FALSE(core::DartMonitor::batch_prefetches(unbounded_config()));
  EXPECT_FALSE(core::DartMonitor::batch_prefetches(core::DartConfig{}));

  // The shadow RT is a second RT-sized slot array in the footprint.
  core::DartConfig rt_only;
  rt_only.rt_size = paper.rt_size;
  core::DartConfig shadowed = paper;
  shadowed.shadow_rt = true;
  EXPECT_EQ(core::DartMonitor::table_bytes(shadowed),
            core::DartMonitor::table_bytes(paper) +
                core::DartMonitor::table_bytes(rt_only));

  // A footprint at or under the budget stays scalar; one slot more does not.
  core::DartConfig one_slot;
  one_slot.rt_size = 1;
  core::DartConfig edge;
  edge.rt_size = core::DartMonitor::kPrefetchBudgetBytes /
                 core::DartMonitor::table_bytes(one_slot);
  ASSERT_LE(core::DartMonitor::table_bytes(edge),
            core::DartMonitor::kPrefetchBudgetBytes);
  EXPECT_FALSE(core::DartMonitor::batch_prefetches(edge));
  edge.rt_size += 1;
  EXPECT_TRUE(core::DartMonitor::batch_prefetches(edge));
}

// The sharded runtime's batched worker loop must reproduce, shard by
// shard, a scalar DartMonitor::process replay of exactly the subsequence
// the router sends that shard: same stats, same samples in emission order.
TEST(BatchDifferential, ShardedWorkerModesAgreePerShard) {
  const auto trace = gen::build_campus(base_campus());

  for (const bool bounded : {false, true}) {
    const core::DartConfig dart_config =
        bounded ? bounded_config() : unbounded_config();
    for (const runtime_check::WorkerLoop& loop :
         runtime_check::worker_loops(dart_config)) {
      runtime::ShardedConfig config;
      config.shards = 4;
      runtime::ShardedMonitor sharded(config, loop.factory);
      sharded.process_all(trace.packets());
      sharded.finish();

      const auto refs = runtime_check::per_shard_reference(
          dart_config, trace.packets(), sharded.config());
      const std::string label =
          std::string(bounded ? "bounded " : "unbounded ") + loop.name;
      core::DartStats merged_ref;
      for (std::uint32_t i = 0; i < sharded.shards(); ++i) {
        runtime_check::expect_shard_matches(sharded, i, refs[i], label);
        merged_ref += refs[i].stats;
      }
      const core::RuntimeHealth health = sharded.health();
      EXPECT_EQ(health.shed_packets, 0U) << label;
      EXPECT_EQ(health.abandoned_packets, 0U) << label;
      core::DartStats merged = sharded.merged_stats();
      merged.runtime = core::RuntimeHealth{};
      EXPECT_EQ(merged, merged_ref) << label;
    }
  }
}

#if defined(DART_TELEMETRY)
// Deterministic-tier telemetry is derived from the merged results at
// quiesce time, so the exported text must be byte-identical however the
// router cuts the stream into ring batches — one packet per batch or the
// default 256 — and whichever loop the workers run the batches through.
TEST(BatchDifferential, DeterministicTelemetryExportIsIdentical) {
  const auto trace = gen::build_campus(base_campus());

  const auto deterministic_export = [&](std::size_t batch_size,
                                        const runtime::MonitorFactory&
                                            factory) {
    telemetry::Registry registry(4);
    telemetry::RuntimeMetrics metrics(registry);
    runtime::ShardedConfig config;
    config.shards = 4;
    config.batch_size = batch_size;
    config.telemetry = &metrics;
    runtime::ShardedMonitor sharded(config, factory);
    sharded.process_all(trace.packets());
    sharded.finish();
    telemetry::SnapshotOptions options;
    options.deterministic_only = true;
    return telemetry::to_prometheus(registry.snapshot(options));
  };

  std::string reference;
  for (const runtime_check::WorkerLoop& loop :
       runtime_check::worker_loops(bounded_config())) {
    for (const std::size_t batch_size :
         {std::size_t{1}, runtime::ShardedConfig{}.batch_size}) {
      const std::string text = deterministic_export(batch_size, loop.factory);
      if (reference.empty()) {
        reference = text;
        EXPECT_FALSE(reference.empty());
      }
      EXPECT_EQ(text, reference) << loop.name << " batch " << batch_size;
    }
  }
}

// The live tier's batch_fill histogram is the batching observability hook:
// it must record one observation per dequeued ring batch.
TEST(BatchDifferential, BatchFillHistogramRecordsEveryBatch) {
  const auto trace = gen::build_campus(base_campus());
  for (const runtime_check::WorkerLoop& loop :
       runtime_check::worker_loops(unbounded_config())) {
    telemetry::Registry registry(2);
    telemetry::RuntimeMetrics metrics(registry);
    runtime::ShardedConfig config;
    config.shards = 2;
    config.telemetry = &metrics;
    runtime::ShardedMonitor sharded(config, loop.factory);
    sharded.process_all(trace.packets());
    sharded.finish();

    std::uint64_t batches = 0;
    for (std::size_t i = 0; i < metrics.worker_batches->slots(); ++i) {
      batches += metrics.worker_batches->at(i).value();
    }
    EXPECT_GT(batches, 0U) << loop.name;
    EXPECT_EQ(metrics.batch_fill->fold_all().count(), batches) << loop.name;
  }
}
#endif  // DART_TELEMETRY

}  // namespace
}  // namespace dart
