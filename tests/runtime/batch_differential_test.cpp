// Differential proof that the sharded runtime's batched worker loop is
// observably identical to the per-packet scalar path. Every scenario runs
// the same stream through DartMonitor::process one packet at a time
// (scalar reference) and through a one-shard ShardedMonitor whose worker
// hands each ring batch to ReplayMonitor::process_batch, and asserts
// byte-identical end-state checkpoint snapshots (config, stats, RT, PT,
// shadow — the complete monitor state), identical sample streams *in
// emission order*, and identical collapse / optimistic-ACK event streams.
// Multi-shard runs must give per-shard results identical to a scalar
// replay of each shard's stream, plus a deterministic telemetry export
// independent of the ring batching.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"

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

// The bounded config exercises every state machine the monitor has:
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

// The scalar reference against the ring-batched worker loop.
runtime_check::MonitorRun expect_worker_matches_scalar(
    const core::DartConfig& config, const std::vector<PacketRecord>& packets,
    const std::string& label) {
  runtime_check::MonitorRun scalar =
      runtime_check::scalar_run(config, packets);
  runtime_check::expect_same_run(
      scalar, runtime_check::worker_run(config, packets), label);
  return scalar;
}

TEST(BatchDifferential, BoundedScenariosAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    const auto scalar = expect_worker_matches_scalar(
        bounded_config(), trace.packets(), scenario.name);
    ASSERT_GT(scalar.samples.size(), 0U)
        << scenario.name << ": scenario produced no samples to compare";
  }
}

TEST(BatchDifferential, UnboundedScenariosAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    expect_worker_matches_scalar(unbounded_config(), trace.packets(),
                                 scenario.name);
  }
}

TEST(BatchDifferential, NonPowerOfTwoTablesAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    const auto scalar = expect_worker_matches_scalar(
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
    expect_worker_matches_scalar(
        config, trace.packets(),
        leg == core::LegMode::kExternal ? "external" : "internal");
  }
}

TEST(BatchDifferential, SynInclusionMatchesScalar) {
  const auto trace = gen::build_campus(base_campus());
  core::DartConfig config = bounded_config();
  config.include_syn = true;
  expect_worker_matches_scalar(config, trace.packets(), "+SYN");
}

// The sharded runtime's batched worker loop must reproduce, shard by
// shard, a scalar DartMonitor::process replay of exactly the subsequence
// the router sends that shard: same stats, same samples in emission order.
TEST(BatchDifferential, ShardedWorkerModesAgreePerShard) {
  struct NamedConfig {
    const char* name;
    core::DartConfig config;
  };
  const NamedConfig configs[] = {{"bounded", bounded_config()},
                                 {"odd", odd_geometry_config()},
                                 {"unbounded", unbounded_config()}};
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    for (const NamedConfig& named : configs) {
      runtime::ShardedConfig config;
      config.shards = 4;
      runtime::ShardedMonitor sharded(config,
                                      runtime::dart_factory(named.config));
      sharded.process_all(trace.packets());
      sharded.finish();

      const auto refs = runtime_check::per_shard_reference(
          named.config, trace.packets(), sharded.config());
      const std::string label =
          std::string(scenario.name) + " " + named.name;
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

// Deterministic-tier telemetry is derived from the merged results at
// quiesce time, so the exported text must be byte-identical however the
// router cuts the stream into ring batches — one packet per batch or the
// default 256.
TEST(BatchDifferential, DeterministicTelemetryExportIsIdentical) {
  const auto trace = gen::build_campus(base_campus());

  const auto deterministic_export = [&](std::size_t batch_size) {
    telemetry::Registry registry(4);
    telemetry::RuntimeMetrics metrics(registry);
    runtime::ShardedConfig config;
    config.shards = 4;
    config.batch_size = batch_size;
    config.telemetry = &metrics;
    runtime::ShardedMonitor sharded(config, bounded_config());
    sharded.process_all(trace.packets());
    sharded.finish();
    telemetry::SnapshotOptions options;
    options.deterministic_only = true;
    return telemetry::to_prometheus(registry.snapshot(options));
  };

  const std::string reference = deterministic_export(1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(deterministic_export(runtime::ShardedConfig{}.batch_size),
            reference);
}

// The live tier's batch_fill histogram is the batching observability hook:
// it must record one observation per dequeued ring batch.
TEST(BatchDifferential, BatchFillHistogramRecordsEveryBatch) {
  const auto trace = gen::build_campus(base_campus());
  telemetry::Registry registry(2);
  telemetry::RuntimeMetrics metrics(registry);
  runtime::ShardedConfig config;
  config.shards = 2;
  config.telemetry = &metrics;
  runtime::ShardedMonitor sharded(config, unbounded_config());
  sharded.process_all(trace.packets());
  sharded.finish();

  std::uint64_t batches = 0;
  for (std::size_t i = 0; i < metrics.worker_batches->slots(); ++i) {
    batches += metrics.worker_batches->at(i).value();
  }
  EXPECT_GT(batches, 0U);
  EXPECT_EQ(metrics.batch_fill->fold_all().count(), batches);
}

}  // namespace
}  // namespace dart
