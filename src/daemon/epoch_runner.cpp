#include "daemon/epoch_runner.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "analytics/histogram.hpp"
#include "runtime/epoch_math.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart::daemon {
namespace {

// %.17g round-trips every double exactly (same convention as the
// telemetry exporter), so equal histograms render equal bytes.
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return std::string(buf);
}

void line(std::string& out, const char* name, std::uint64_t value) {
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void shard_line(std::string& out, const char* name, std::uint32_t shard,
                std::uint64_t value) {
  out += name;
  out += "{shard=\"";
  out += std::to_string(shard);
  out += "\"} ";
  out += std::to_string(value);
  out += '\n';
}

/// The deterministic tier: everything here derives from settled post-drain
/// counters and the workers' RTT histograms, merged bin by bin — no wall
/// clock, no scrape-time state, no dependence on sample order — so a
/// rate-paced live run and an offline replay of the same trace render
/// byte-identical text.
std::string render_final_report(const runtime::ShardedMonitor& monitor,
                                std::uint64_t cycle) {
  std::string out;
  out += "# dartd deterministic report\n";
  line(out, "dartd_cycle", cycle);
  line(out, "dartd_epochs_completed",
       runtime::epochs_completed(monitor.routed_total(),
                                 monitor.config().epoch_interval_packets));
  for (std::uint32_t i = 0; i < monitor.shards(); ++i) {
    const core::DartStats stats = monitor.shard_stats(i);
    shard_line(out, "dart_routed_total", i, monitor.shard_routed_cursor(i));
    shard_line(out, "dart_processed_total", i, stats.packets_processed);
    shard_line(out, "dart_shed_total", i, stats.runtime.shed_packets);
    shard_line(out, "dart_abandoned_total", i,
               stats.runtime.abandoned_packets);
    shard_line(out, "dart_lost_to_crash_total", i,
               stats.runtime.lost_to_crash);
    shard_line(out, "dart_samples_total", i, stats.samples);
  }
  const core::DartStats merged = monitor.merged_stats();
  line(out, "dart_routed_total", monitor.routed_total());
  line(out, "dart_processed_total", merged.packets_processed);
  line(out, "dart_shed_total", merged.runtime.shed_packets);
  line(out, "dart_abandoned_total", merged.runtime.abandoned_packets);
  line(out, "dart_lost_to_crash_total", merged.runtime.lost_to_crash);
  line(out, "dart_samples_total", merged.samples);

  const analytics::LogHistogram hist = monitor.rtt_histogram();
  line(out, "dart_rtt_ns_count", hist.count());
  line(out, "dart_rtt_ns_min", hist.min());
  line(out, "dart_rtt_ns_max", hist.max());
  for (const double q : {0.5, 0.9, 0.99}) {
    out += "dart_rtt_ns{quantile=\"";
    out += format_double(q);
    out += "\"} ";
    out += format_double(hist.count() == 0 ? 0.0 : hist.quantile(q));
    out += '\n';
  }
  return out;
}

std::string render_epoch_report(const EpochSnapshot& snapshot) {
  std::string out;
  out += "# dartd epoch barrier\n";
  line(out, "dartd_cycle", snapshot.cycle);
  line(out, "dartd_epoch", snapshot.epoch);
  line(out, "dartd_routed_total", snapshot.routed);
  for (std::uint32_t i = 0; i < snapshot.shard_cursors.size(); ++i) {
    shard_line(out, "dartd_shard_cursor", i, snapshot.shard_cursors[i]);
  }
  return out;
}

}  // namespace

const char* to_string(DaemonStatus::State state) {
  switch (state) {
    case DaemonStatus::State::kIdle: return "idle";
    case DaemonStatus::State::kRunning: return "running";
    case DaemonStatus::State::kDrained: return "drained";
  }
  return "unknown";
}

EpochRunner::EpochRunner(const DaemonConfig& config) : config_(config) {}

std::string EpochRunner::run_cycle(PacketSource& source, const StopFn& stop) {
  std::uint64_t cycle = 0;
  {
    common::MutexLock lock(mutex_);
    cycle = ++status_.cycle;
    status_.state = DaemonStatus::State::kRunning;
    status_.epochs = 0;
    status_.routed = 0;
    status_.source_exhausted = false;
    last_epoch_ = EpochSnapshot{};
    final_report_.clear();
  }

  runtime::ShardedConfig sharded;
  sharded.shards = config_.shards;
  sharded.epoch_interval_packets = config_.epoch_interval;
  // The report reads the workers' histograms only, so no shard keeps a raw
  // sample: a cycle's memory does not grow with the samples it measures.
  sharded.keep_samples = false;
  sharded.telemetry = config_.telemetry;
  // The hook runs on the router thread — this thread, inside
  // process_all — so reading the cursors through `live` never races
  // routing state. `live` is assigned before the first packet is routed.
  runtime::ShardedMonitor* live = nullptr;
  sharded.on_epoch = [this, &live, cycle](std::uint64_t epoch,
                                          std::uint64_t routed) {
    EpochSnapshot snapshot;
    snapshot.cycle = cycle;
    snapshot.epoch = epoch;
    snapshot.routed = routed;
    snapshot.shard_cursors.reserve(live->shards());
    for (std::uint32_t i = 0; i < live->shards(); ++i) {
      snapshot.shard_cursors.push_back(live->shard_routed_cursor(i));
    }
    common::MutexLock lock(mutex_);
    status_.epochs = epoch;
    status_.routed = routed;
    last_epoch_ = std::move(snapshot);
  };

  runtime::ShardedMonitor monitor(sharded, config_.dart);
  live = &monitor;

  std::vector<PacketRecord> batch;
  batch.reserve(config_.poll_budget);
  while (!(stop && stop())) {
    batch.clear();
    const std::size_t pulled = source.poll(batch, config_.poll_budget);
    if (pulled > 0) {
      monitor.process_all(batch);
      common::MutexLock lock(mutex_);
      status_.routed = monitor.routed_total();
      continue;
    }
    if (source.exhausted()) break;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(config_.idle_sleep_ns));
  }

  // Drain to the barrier: every process_all call already handed its
  // packets to the rings, so join every worker once it has drained its
  // ring, then settle results. After this the accounting identity holds
  // exactly.
  monitor.finish();
  std::string report = render_final_report(monitor, cycle);
  {
    common::MutexLock lock(mutex_);
    status_.state = DaemonStatus::State::kDrained;
    status_.routed = monitor.routed_total();
    status_.epochs = runtime::epochs_completed(
        monitor.routed_total(), config_.epoch_interval);
    status_.source_exhausted = source.exhausted();
    final_report_ = report;
  }
  return report;
}

DaemonStatus EpochRunner::status() const {
  common::MutexLock lock(mutex_);
  return status_;
}

EpochSnapshot EpochRunner::last_epoch() const {
  common::MutexLock lock(mutex_);
  return last_epoch_;
}

std::string EpochRunner::epoch_report() const {
  common::MutexLock lock(mutex_);
  return render_epoch_report(last_epoch_);
}

std::string EpochRunner::final_report() const {
  common::MutexLock lock(mutex_);
  return final_report_;
}

}  // namespace dart::daemon
