// EpochRunner: the daemon's continuous-rotation core. Pins down the three
// contracts the dartd surface stands on: (1) a drained cycle's report
// carries the exact accounting identity, (2) a rate-paced live run renders
// byte-identical text to an unpaced offline replay of the same trace, and
// (3) stop is drain-to-barrier — a mid-run SIGTERM settles results instead
// of abandoning them. The RTT lines, rendered from the workers' merged
// histograms, are also held to a reference rendered from the sorted merged
// sample stream, and a source that goes idle strands no routed packet.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analytics/histogram.hpp"
#include "daemon/epoch_runner.hpp"
#include "daemon/packet_source.hpp"
#include "daemon/replay_source.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"

namespace dart {
namespace {

trace::Trace daemon_workload() {
  gen::CampusConfig config;
  config.seed = 21;
  config.connections = 300;
  config.duration = sec(2);
  return gen::build_campus(config);
}

daemon::DaemonConfig runner_config(std::uint64_t epoch_interval) {
  daemon::DaemonConfig config;
  config.shards = 3;
  config.epoch_interval = epoch_interval;
  config.poll_budget = 512;
  return config;
}

// Value of an *aggregate* line ("name value", no labels) in a report.
std::uint64_t report_value(const std::string& report,
                           const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = report.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || report[pos - 1] == '\n') {
      return std::stoull(report.substr(pos + needle.size()));
    }
    pos += needle.size();
  }
  ADD_FAILURE() << "report lacks aggregate line for " << name;
  return 0;
}

// The routed identity per shard and in aggregate, with each aggregate row
// the sum of its shard rows: the check dart-top --check runs.
void expect_identity(const std::string& report) {
  std::string error;
  EXPECT_TRUE(telemetry::check_routed_identity(
      telemetry::parse_prometheus(report), "dart_", "shard",
      telemetry::kAccountedTerms, &error))
      << error;
}

// The report's dart_rtt_ns* lines, in order.
std::string rtt_lines(const std::string& report) {
  std::istringstream in(report);
  std::string out;
  for (std::string text; std::getline(in, text);) {
    if (text.rfind("dart_rtt_ns", 0) != 0) continue;
    out += text;
    out += '\n';
  }
  return out;
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The dart_rtt_ns* lines rendered from a LogHistogram filled in canonical
// sample order: the merged_samples() of a ShardedMonitor with the
// runner's shard count and monitor config, fed the same trace.
std::string reference_rtt_lines(const trace::Trace& trace,
                                const daemon::DaemonConfig& config) {
  runtime::ShardedConfig sharded;
  sharded.shards = config.shards;
  runtime::ShardedMonitor monitor(sharded, config.dart);
  monitor.process_all(trace.packets());
  monitor.finish();
  analytics::LogHistogram hist;
  for (const core::RttSample& sample : monitor.merged_samples()) {
    hist.add(sample.rtt());
  }
  std::string out;
  const auto counter = [&out](const char* name, std::uint64_t value) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  counter("dart_rtt_ns_count", hist.count());
  counter("dart_rtt_ns_min", hist.min());
  counter("dart_rtt_ns_max", hist.max());
  for (const double q : {0.5, 0.9, 0.99}) {
    out += "dart_rtt_ns{quantile=\"";
    out += format_double(q);
    out += "\"} ";
    out += format_double(hist.count() == 0 ? 0.0 : hist.quantile(q));
    out += '\n';
  }
  return out;
}

TEST(EpochRunner, DrainsUnpacedReplayWithIdentity) {
  const trace::Trace trace = daemon_workload();
  daemon::EpochRunner runner(runner_config(1000));
  EXPECT_EQ(runner.status().state, daemon::DaemonStatus::State::kIdle);
  EXPECT_TRUE(runner.final_report().empty());

  daemon::ReplaySource source{trace};
  const std::string report = runner.run_cycle(source, {});

  const daemon::DaemonStatus status = runner.status();
  EXPECT_EQ(status.state, daemon::DaemonStatus::State::kDrained);
  EXPECT_EQ(status.cycle, 1u);
  EXPECT_EQ(status.routed, trace.size());
  EXPECT_TRUE(status.source_exhausted);
  EXPECT_EQ(status.epochs, trace.size() / 1000);

  EXPECT_EQ(runner.final_report(), report);
  EXPECT_NE(report.find("# dartd deterministic report"), std::string::npos);
  EXPECT_EQ(report_value(report, "dart_routed_total"), trace.size());
  expect_identity(report);
}

// The tentpole's provable claim: pacing changes arrival times, never
// content — so the deterministic tier renders the same bytes live as
// offline. The paced run compresses trace time 10^9-fold to keep the
// test fast.
TEST(EpochRunner, PacedLiveRunIsByteIdenticalToOfflineReplay) {
  const trace::Trace trace = daemon_workload();

  daemon::EpochRunner offline(runner_config(500));
  daemon::ReplaySource unpaced{trace};
  const std::string offline_report = offline.run_cycle(unpaced, {});

  daemon::EpochRunner live(runner_config(500));
  daemon::ReplaySource paced{trace, daemon::ReplaySourceConfig{1e9}};
  const std::string live_report = live.run_cycle(paced, {});

  EXPECT_EQ(live_report, offline_report);
  expect_identity(live_report);
}

TEST(EpochRunner, StopMidRunDrainsToBarrier) {
  const trace::Trace trace = daemon_workload();
  daemon::DaemonConfig config = runner_config(100);
  config.poll_budget = 150;  // well under the trace size
  daemon::EpochRunner runner(config);

  // First check lets one poll through; the second stops the cycle. The
  // callback also observes the running state from the inside.
  int checks = 0;
  const daemon::StopFn stop = [&runner, &checks]() {
    EXPECT_EQ(runner.status().state, daemon::DaemonStatus::State::kRunning);
    return ++checks > 1;
  };
  daemon::ReplaySource source{trace};
  const std::string report = runner.run_cycle(source, stop);

  const daemon::DaemonStatus status = runner.status();
  EXPECT_EQ(status.state, daemon::DaemonStatus::State::kDrained);
  EXPECT_FALSE(status.source_exhausted);  // stopped, not drained dry
  EXPECT_EQ(status.routed, 150u);
  EXPECT_EQ(report_value(report, "dart_routed_total"), 150u);
  expect_identity(report);  // the identity holds even when cut short
}

TEST(EpochRunner, SealsEpochSnapshotsAtBarriers) {
  const trace::Trace trace = daemon_workload();
  const std::uint64_t interval = 250;
  daemon::EpochRunner runner(runner_config(interval));
  EXPECT_NE(runner.epoch_report().find("# dartd epoch barrier"),
            std::string::npos);  // header renders even before any epoch

  daemon::ReplaySource source{trace};
  runner.run_cycle(source, {});

  const daemon::EpochSnapshot last = runner.last_epoch();
  EXPECT_EQ(last.cycle, 1u);
  EXPECT_EQ(last.epoch, trace.size() / interval);
  EXPECT_EQ(last.routed, last.epoch * interval);
  ASSERT_EQ(last.shard_cursors.size(), 3u);
  std::uint64_t sum = 0;
  for (const std::uint64_t cursor : last.shard_cursors) sum += cursor;
  EXPECT_EQ(sum, last.routed);

  const std::string epoch_report = runner.epoch_report();
  EXPECT_NE(epoch_report.find("dartd_epoch " + std::to_string(last.epoch)),
            std::string::npos);
}

// Rotation: each cycle builds a fresh monitor, so a second cycle over the
// same trace reproduces the same counters under the next cycle number.
TEST(EpochRunner, RotatesFreshMonitorPerCycle) {
  const trace::Trace trace = daemon_workload();
  daemon::EpochRunner runner(runner_config(1000));

  daemon::ReplaySource first{trace};
  const std::string report1 = runner.run_cycle(first, {});
  daemon::ReplaySource second{trace};
  const std::string report2 = runner.run_cycle(second, {});

  EXPECT_EQ(runner.status().cycle, 2u);
  EXPECT_NE(report1.find("dartd_cycle 1\n"), std::string::npos);
  EXPECT_NE(report2.find("dartd_cycle 2\n"), std::string::npos);
  // Identical input, identical results — only the cycle stamp moves.
  const std::string tail1 = report1.substr(report1.find("dartd_epochs"));
  const std::string tail2 = report2.substr(report2.find("dartd_epochs"));
  EXPECT_EQ(tail1, tail2);
}

TEST(EpochRunner, EmptySourceDrainsCleanly) {
  daemon::EpochRunner runner(runner_config(100));
  daemon::ReplaySource source{trace::Trace{}};
  const std::string report = runner.run_cycle(source, {});
  EXPECT_EQ(report_value(report, "dart_routed_total"), 0u);
  EXPECT_EQ(runner.status().state, daemon::DaemonStatus::State::kDrained);
  EXPECT_TRUE(runner.status().source_exhausted);
  expect_identity(report);
}

// The workers' histograms, merged at drain, render the same RTT lines as a
// histogram filled from the sorted merged samples — for one shard and for
// several.
TEST(EpochRunner, RttLinesMatchSortedSampleReference) {
  const trace::Trace trace = daemon_workload();
  for (const std::uint32_t shards : {1u, 3u}) {
    daemon::DaemonConfig config = runner_config(1000);
    config.shards = shards;
    daemon::EpochRunner runner(config);
    daemon::ReplaySource source{trace};
    const std::string report = runner.run_cycle(source, {});

    EXPECT_GT(report_value(report, "dart_rtt_ns_count"), 0U);
    EXPECT_EQ(report_value(report, "dart_rtt_ns_count"),
              report_value(report, "dart_samples_total"));
    EXPECT_EQ(rtt_lines(report), reference_rtt_lines(trace, config))
        << "at " << shards << " shards";
  }
}

// No samples: count, min and max render 0 and so does every quantile, both
// for an empty source and for one packet, which can never close an RTT.
TEST(EpochRunner, SampleFreeCycleRendersZeroRttLines) {
  trace::Trace one_packet;
  one_packet.add(daemon_workload().packets().front());
  for (const trace::Trace& input : {trace::Trace{}, one_packet}) {
    daemon::EpochRunner runner(runner_config(100));
    daemon::ReplaySource source{input};
    const std::string report = runner.run_cycle(source, {});

    EXPECT_EQ(report_value(report, "dart_routed_total"), input.size());
    EXPECT_EQ(report_value(report, "dart_samples_total"), 0U);
    EXPECT_EQ(rtt_lines(report),
              "dart_rtt_ns_count 0\n"
              "dart_rtt_ns_min 0\n"
              "dart_rtt_ns_max 0\n"
              "dart_rtt_ns{quantile=\"0.5\"} 0\n"
              "dart_rtt_ns{quantile=\"0.90000000000000002\"} 0\n"
              "dart_rtt_ns{quantile=\"0.98999999999999999\"} 0\n");
  }
}

/// Yields its packets on the first poll, then idles without ever being
/// exhausted, like a live feed that has gone quiet.
class TricklingSource : public daemon::PacketSource {
 public:
  explicit TricklingSource(std::vector<PacketRecord> packets)
      : packets_(std::move(packets)) {}
  std::size_t poll(std::vector<PacketRecord>& out, std::size_t max) override {
    const std::size_t n = std::min(max, packets_.size() - next_);
    out.insert(out.end(), packets_.begin() + static_cast<std::ptrdiff_t>(next_),
               packets_.begin() + static_cast<std::ptrdiff_t>(next_ + n));
    next_ += n;
    return n;
  }
  bool exhausted() const override { return false; }

 private:
  std::vector<PacketRecord> packets_;
  std::size_t next_ = 0;
};

// A source that goes quiet after fewer packets than a ring batch must not
// strand them: the workers process every one while the cycle still runs,
// as the live worker-packet counter shows, long before the stop.
TEST(EpochRunner, IdleSourceStrandsNoPacketBeforeStop) {
  const trace::Trace trace = daemon_workload();
  const std::size_t k = 200;
  ASSERT_LT(k, runtime::ShardedConfig{}.batch_size);
  ASSERT_GT(trace.size(), k);

  daemon::DaemonConfig config = runner_config(1000);
  telemetry::Registry registry(config.shards);
  telemetry::RuntimeMetrics metrics(registry);
  config.telemetry = &metrics;
  daemon::EpochRunner runner(config);
  TricklingSource source(std::vector<PacketRecord>(
      trace.packets().begin(),
      trace.packets().begin() + static_cast<std::ptrdiff_t>(k)));
  std::atomic<bool> stop{false};
  std::string report;
  std::thread ingest([&] {
    report = runner.run_cycle(
        source, [&stop] { return stop.load(std::memory_order_acquire); });
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (metrics.worker_packets->total() < k &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t live_packets = metrics.worker_packets->total();
  stop.store(true, std::memory_order_release);
  ingest.join();

  EXPECT_EQ(live_packets, k);
  EXPECT_EQ(report_value(report, "dart_routed_total"), k);
  EXPECT_EQ(report_value(report, "dart_processed_total"), k);
  expect_identity(report);
}

}  // namespace
}  // namespace dart
