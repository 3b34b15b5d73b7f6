// Integration tests of the runtime's telemetry instrumentation: the exported
// counters must satisfy the runtime's accounting identity
//
//     processed + shed + abandoned + lost_to_crash == routed
//
// per shard and in aggregate, on healthy runs, under forced shedding, and
// with the checkpoint/recovery policy on — and the
// deterministic-only snapshot must be byte-identical across two runs of the
// same seeded workload.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"

namespace dart {
namespace {

trace::Trace seeded_workload(std::uint64_t seed) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = 1500;
  config.duration = sec(6);
  return gen::build_campus(config);
}

core::DartConfig reference_config() {
  core::DartConfig config;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = sec(2);
  return config;
}

// The exported identity, checked from the serialized Prometheus text (not
// the in-memory registry) so the whole export pipeline is on the hook.
void expect_identity(const std::string& prometheus_text,
                     std::uint32_t shards, double expected_routed) {
  const std::vector<telemetry::PromSample> samples =
      telemetry::parse_prometheus(prometheus_text);
  std::string error;
  EXPECT_TRUE(telemetry::check_routed_identity(
      samples, "dart_", "shard", telemetry::kAccountedTerms, &error))
      << error;
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_routed_total"), expected_routed);
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    EXPECT_GT(telemetry::labeled_value(samples, "dart_routed_total", "shard",
                                       std::to_string(shard)),
              0.0)
        << "shard " << shard << " exports no routed row";
  }
}

TEST(RuntimeTelemetry, ShardedMonitorExportsTheIdentity) {
  constexpr std::uint32_t kShards = 4;
  const trace::Trace trace = seeded_workload(0xFEED'0001);
  telemetry::Registry registry(kShards);
  telemetry::RuntimeMetrics metrics(registry);

  runtime::ShardedConfig config;
  config.shards = kShards;
  config.telemetry = &metrics;
  runtime::ShardedMonitor sharded(config, reference_config());
  sharded.process_all(trace.packets());
  sharded.finish();

  const std::string text = telemetry::to_prometheus(registry.snapshot());
  expect_identity(text, kShards,
                  static_cast<double>(trace.packets().size()));

  // A healthy run sheds and abandons nothing, and processes everything.
  const auto samples = telemetry::parse_prometheus(text);
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_shed_total"), 0.0);
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_abandoned_total"), 0.0);
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_lost_to_crash_total"), 0.0);
  EXPECT_GT(prom_value(samples, "dart_samples_total"), 0.0);
  // Live-tier instrumentation saw the run too.
  EXPECT_GT(prom_value(samples, "dart_worker_batches_total"), 0.0);
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_worker_packets_total"),
                   static_cast<double>(trace.packets().size()));
  EXPECT_GT(prom_value(samples, "dart_batch_latency_ns_count"), 0.0);
}

// A monitor slow enough that a one-batch ring with an impatient governor
// must shed: the identity still holds, with dart_shed_total > 0 and the
// governor's ladder counters lighting up.
class SlowMonitor : public runtime::ReplayMonitor {
 public:
  void process(const PacketRecord&) override {
    std::this_thread::sleep_for(std::chrono::microseconds(40));
    ++processed_;
  }
  core::DartStats stats() const override {
    core::DartStats stats;
    stats.packets_processed = processed_;
    return stats;
  }

 private:
  std::uint64_t processed_ = 0;
};

TEST(RuntimeTelemetry, ForcedSheddingKeepsTheIdentity) {
  constexpr std::uint32_t kShards = 2;
  const trace::Trace trace = seeded_workload(0xFEED'0002);
  telemetry::Registry registry(kShards);
  telemetry::RuntimeMetrics metrics(registry);

  runtime::ShardedConfig config;
  config.shards = kShards;
  config.batch_size = 64;
  config.queue_batches = 1;
  config.overload.spin_budget = 4;
  config.overload.backoff_initial_ns = 1'000;
  config.overload.backoff_max_ns = 10'000;
  config.overload.shed_deadline_ns = 20'000;  // shed almost immediately
  config.telemetry = &metrics;
  runtime::ShardedMonitor sharded(
      config, [](std::uint32_t, core::SampleCallback) {
        return std::make_unique<SlowMonitor>();
      });
  sharded.process_all(trace.packets());
  sharded.finish();

  const std::string text = telemetry::to_prometheus(registry.snapshot());
  expect_identity(text, kShards,
                  static_cast<double>(trace.packets().size()));

  const auto samples = telemetry::parse_prometheus(text);
  EXPECT_GT(prom_value(samples, "dart_shed_total"), 0.0)
      << "the overload setup must actually force shedding";
  EXPECT_GT(prom_value(samples, "dart_governor_sheds_total"), 0.0);
  EXPECT_GT(prom_value(samples, "dart_governor_backoffs_total"), 0.0);
  EXPECT_GT(prom_value(samples, "dart_backpressure_sleeps_total"), 0.0);
  // Every sleep belongs to exactly one backoff episode, so episodes can
  // never outnumber sleeps.
  EXPECT_LE(prom_value(samples, "dart_governor_backoffs_total"),
            prom_value(samples, "dart_backpressure_sleeps_total"));
}

TEST(RuntimeTelemetry, SupervisorExportsIdentityAndCommits) {
  constexpr std::uint32_t kShards = 3;
  const trace::Trace trace = seeded_workload(0xFEED'0003);
  telemetry::Registry registry(kShards);
  telemetry::RuntimeMetrics metrics(registry);

  runtime::ShardedConfig config;
  config.shards = kShards;
  config.epoch_interval_packets = 2048;
  config.restart_budget = 3;
  config.telemetry = &metrics;
  runtime::ShardedMonitor supervisor(config, reference_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();

  const std::string text = telemetry::to_prometheus(registry.snapshot());
  expect_identity(text, kShards,
                  static_cast<double>(trace.packets().size()));

  const auto samples = telemetry::parse_prometheus(text);
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_checkpoint_commits_total"),
                   static_cast<double>(supervisor.checkpoints_cut()));
  EXPECT_GT(supervisor.checkpoints_cut(), 0U);
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_checkpoint_rejected_total"),
                   0.0)
      << "no zombies in a crash-free run";
  EXPECT_GT(prom_value(samples, "dart_commit_latency_ns_count"), 0.0);
}

// Two runs of the same seeded workload must export byte-identical
// deterministic-only snapshots: that tier is a function of (trace, seed)
// alone, never of scheduling.
TEST(RuntimeTelemetry, DeterministicSnapshotIsByteStableAcrossRuns) {
  constexpr std::uint32_t kShards = 4;
  const trace::Trace trace = seeded_workload(0xFEED'0004);

  auto run_once = [&trace] {
    telemetry::Registry registry(kShards);
    telemetry::RuntimeMetrics metrics(registry);
    runtime::ShardedConfig config;
    config.shards = kShards;
    config.telemetry = &metrics;
    runtime::ShardedMonitor sharded(config, reference_config());
    sharded.process_all(trace.packets());
    sharded.finish();
    telemetry::SnapshotOptions options;
    options.deterministic_only = true;
    const telemetry::TelemetrySnapshot snap = registry.snapshot(options);
    return std::pair<std::string, std::string>(telemetry::to_prometheus(snap),
                                               telemetry::to_json(snap));
  };

  const auto [prom_a, json_a] = run_once();
  const auto [prom_b, json_b] = run_once();
  EXPECT_EQ(prom_a, prom_b) << "deterministic Prometheus export diverged";
  EXPECT_EQ(json_a, json_b) << "deterministic JSON export diverged";
  // The deterministic tier must not leak wall-clock families.
  EXPECT_EQ(prom_a.find("dart_batch_latency_ns"), std::string::npos);
  EXPECT_EQ(prom_a.find("dart_worker_batches_total"), std::string::npos);
  EXPECT_EQ(prom_a.find("dart_ring_occupancy"), std::string::npos);
  // But it does carry the authoritative accounting.
  EXPECT_NE(prom_a.find("dart_routed_total"), std::string::npos);
  EXPECT_NE(prom_a.find("dart_processed_total"), std::string::npos);
}

}  // namespace
}  // namespace dart
