// EpochRunner: the daemon's module layer — continuous epoch rotation over
// the sharded runtime.
//
// The batch runtime answers queries only "after finish()". The runner
// keeps that invariant *per epoch* instead of per process: it drives a
// ShardedMonitor from a PacketSource, and at every epoch barrier (the
// router-thread on_epoch hook) seals a snapshot of the routed cursors into
// a mutex-guarded board that query threads read concurrently. Shutdown
// (stop predicate true, or source exhausted) is drain-to-barrier: the
// workers drain what every poll's process_all call already handed them,
// join, and settle results — so the final report
// carries the exact accounting identity
//
//     processed + shed + abandoned + lost_to_crash == routed
//
// per shard and in aggregate, and its deterministic rendering is
// byte-identical between a rate-paced live run and an unpaced offline
// replay of the same trace (pacing changes arrival times, not content).
//
// Each ingest cycle builds a FRESH ShardedMonitor — the lifecycle fix made
// reuse a typed error (LifecycleError), and the runner is the pattern's
// intended consumer: rotate monitors, never resurrect one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/config.hpp"
#include "daemon/net.hpp"
#include "daemon/packet_source.hpp"

namespace dart::telemetry {
struct RuntimeMetrics;
}  // namespace dart::telemetry

namespace dart::daemon {

struct DaemonConfig {
  core::DartConfig dart;

  /// Worker shards of the underlying runtime.
  std::uint32_t shards = 2;

  /// Routed packets per epoch; every boundary seals a query snapshot.
  std::uint64_t epoch_interval = 65536;

  /// Max packets pulled from the source per ingest turn; bounds the time
  /// between stop-flag checks.
  std::size_t poll_budget = 4096;

  /// Sleep between empty polls of an idle (not exhausted) source.
  std::uint64_t idle_sleep_ns = 200'000;

  /// Live-tier instrumentation for the cycle's runtime; must outlive
  /// run_cycle(). nullptr runs uninstrumented.
  telemetry::RuntimeMetrics* telemetry = nullptr;
};

/// One sealed epoch barrier: the router-side cursors at the instant the
/// hook fired. A routing barrier, not a quiesce point — workers may still
/// be consuming up to these cursors.
struct EpochSnapshot {
  std::uint64_t cycle = 0;
  std::uint64_t epoch = 0;   ///< 1-based; 0 means "no epoch sealed yet"
  std::uint64_t routed = 0;  ///< == epoch * interval
  std::vector<std::uint64_t> shard_cursors;  ///< sum == routed
};

struct DaemonStatus {
  enum class State : std::uint8_t { kIdle, kRunning, kDrained };
  State state = State::kIdle;
  std::uint64_t cycle = 0;
  std::uint64_t epochs = 0;
  std::uint64_t routed = 0;
  bool source_exhausted = false;
};

const char* to_string(DaemonStatus::State state);

class EpochRunner {
 public:
  explicit EpochRunner(const DaemonConfig& config);

  /// Drive one ingest cycle to its drain barrier: pull from `source` until
  /// it is exhausted or `stop()` turns true, then flush, join, and seal
  /// the final deterministic report (also returned). Ingest-thread only;
  /// the query accessors below are safe concurrently.
  std::string run_cycle(PacketSource& source, const StopFn& stop);

  DaemonStatus status() const;
  EpochSnapshot last_epoch() const;

  /// Text renderings for the query surface. epoch_report() covers the last
  /// sealed barrier (header-only before the first); final_report() is
  /// empty until a cycle has drained.
  std::string epoch_report() const;
  std::string final_report() const;

  const DaemonConfig& config() const { return config_; }

 private:
  mutable common::Mutex mutex_;
  DaemonStatus status_ DART_GUARDED_BY(mutex_);
  EpochSnapshot last_epoch_ DART_GUARDED_BY(mutex_);
  std::string final_report_ DART_GUARDED_BY(mutex_);
  // con-ok(CON005): immutable after construction, read-only from any thread
  DaemonConfig config_;
};

}  // namespace dart::daemon
