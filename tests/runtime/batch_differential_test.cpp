// Differential proof that the batched SoA hot path is observably identical
// to the scalar per-packet path. This is the safety net under the PR that
// rewrote the repo's most correctness-critical loop: every scenario runs
// the same stream through DartMonitor::process_all (scalar reference) and
// DartMonitor::process_batch, and asserts byte-identical checkpoint
// snapshots (config, stats, RT, PT, shadow — the complete monitor state),
// identical sample streams *in emission order*, identical collapse /
// optimistic-ACK event streams, and — through the sharded runtime —
// per-shard results identical to a scalar replay of each shard's stream,
// plus a deterministic telemetry export independent of the ring batching.
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

enum class Path { kScalar, kBatched };

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
  if (path == Path::kScalar) {
    monitor.process_all(packets);
  } else {
    monitor.process_batch(packets);
  }
  trace.stats = monitor.stats();
  trace.image = monitor.snapshot(core::SnapshotMeta{});
  return trace;
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
    const auto scalar = run(bounded_config(), trace.packets(), Path::kScalar);
    const auto batched =
        run(bounded_config(), trace.packets(), Path::kBatched);
    ASSERT_GT(scalar.samples.size(), 0U)
        << scenario.name << ": scenario produced no samples to compare";
    expect_identical(scalar, batched, scenario.name);
  }
}

TEST(BatchDifferential, UnboundedScenariosAreByteIdentical) {
  for (const Scenario& scenario : scenarios()) {
    const auto trace = gen::build_campus(scenario.campus);
    const auto scalar =
        run(unbounded_config(), trace.packets(), Path::kScalar);
    const auto batched =
        run(unbounded_config(), trace.packets(), Path::kBatched);
    expect_identical(scalar, batched, scenario.name);
  }
}

TEST(BatchDifferential, SingleLegModesMatchScalar) {
  const auto trace = gen::build_campus(base_campus());
  for (const core::LegMode leg :
       {core::LegMode::kExternal, core::LegMode::kInternal}) {
    core::DartConfig config = bounded_config();
    config.leg = leg;
    const auto scalar = run(config, trace.packets(), Path::kScalar);
    const auto batched = run(config, trace.packets(), Path::kBatched);
    expect_identical(scalar, batched,
                     leg == core::LegMode::kExternal ? "external" : "internal");
  }
}

TEST(BatchDifferential, SynInclusionMatchesScalar) {
  const auto trace = gen::build_campus(base_campus());
  core::DartConfig config = bounded_config();
  config.include_syn = true;
  const auto scalar = run(config, trace.packets(), Path::kScalar);
  const auto batched = run(config, trace.packets(), Path::kBatched);
  expect_identical(scalar, batched, "+SYN");
}

// The sharded runtime's batched worker loop must reproduce, shard by
// shard, a scalar DartMonitor::process replay of exactly the subsequence
// the router sends that shard: same stats, same samples in emission order.
TEST(BatchDifferential, ShardedWorkerModesAgreePerShard) {
  const auto trace = gen::build_campus(base_campus());

  for (const bool bounded : {false, true}) {
    const core::DartConfig dart_config =
        bounded ? bounded_config() : unbounded_config();
    runtime::ShardedConfig config;
    config.shards = 4;
    runtime::ShardedMonitor sharded(config, dart_config);
    sharded.process_all(trace.packets());
    sharded.finish();

    const auto refs = runtime_check::per_shard_reference(
        dart_config, trace.packets(), sharded.config());
    core::DartStats merged_ref;
    for (std::uint32_t i = 0; i < sharded.shards(); ++i) {
      runtime_check::expect_shard_matches(
          sharded, i, refs[i], bounded ? "bounded" : "unbounded");
      merged_ref += refs[i].stats;
    }
    const core::RuntimeHealth health = sharded.health();
    EXPECT_EQ(health.shed_packets, 0U);
    EXPECT_EQ(health.abandoned_packets, 0U);
    core::DartStats merged = sharded.merged_stats();
    merged.runtime = core::RuntimeHealth{};
    EXPECT_EQ(merged, merged_ref);
  }
}

#if defined(DART_TELEMETRY)
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

  const std::string single_text = deterministic_export(1);
  const std::string default_text =
      deterministic_export(runtime::ShardedConfig{}.batch_size);
  EXPECT_FALSE(single_text.empty());
  EXPECT_EQ(single_text, default_text);
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
#endif  // DART_TELEMETRY

}  // namespace
}  // namespace dart
