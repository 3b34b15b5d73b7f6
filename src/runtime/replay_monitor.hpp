// The per-shard monitor interface of the sharded replay runtime.
//
// Each worker thread owns one ReplayMonitor and is its only caller, so
// implementations need no internal synchronization — the runtime provides
// the happens-before edges (queue publication on the way in, thread join on
// the way out). DartMonitor is the primary implementation; any baseline
// monitor with a `process(const PacketRecord&)` member fits behind
// `BasicReplayMonitor` so differential runs can shard baselines too.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "common/packet.hpp"
#include "core/dart_monitor.hpp"
#include "core/rtt_sample.hpp"
#include "core/stats.hpp"

namespace dart::runtime {

class ReplayMonitor {
 public:
  virtual ~ReplayMonitor() = default;

  /// Process one packet of this shard's stream, in arrival order.
  virtual void process(const PacketRecord& packet) = 0;

  /// Process a whole dequeued ring batch, in arrival order: the worker's
  /// one virtual call per batch. The default forwards to process() one
  /// packet at a time; DartReplayMonitor forwards the span to
  /// DartMonitor::process_all. An override must be observably identical to
  /// per-packet process() calls — the batch differential suite holds each
  /// shard to a per-packet replay of its stream.
  virtual void process_batch(std::span<const PacketRecord> packets) {
    for (const PacketRecord& packet : packets) process(packet);
  }

  /// Counters to fold into the run's merged statistics. Implementations
  /// without Dart-shaped counters may return a default-constructed value.
  virtual core::DartStats stats() const = 0;

  /// Checkpoint support (the sharded runtime's crash-recovery policy).
  /// A monitor that opts in must make snapshot()/restore() a faithful
  /// round-trip of its entire measurement state; the default opts out, and
  /// the runtime then restarts such shards from empty state (barrier-
  /// committed samples are still kept).
  virtual bool supports_checkpoint() const { return false; }
  virtual core::CheckpointImage snapshot(const core::SnapshotMeta&) const {
    return {};
  }
  virtual SealedError restore(const core::CheckpointImage&) {
    return SealedError::at(SealedErrorCode::kUnsupported, 0);
  }
};

/// Builds the monitor for shard `shard`; samples must be forwarded to
/// `on_sample` (the runtime routes them into that shard's log).
using MonitorFactory = std::function<std::unique_ptr<ReplayMonitor>(
    std::uint32_t shard, core::SampleCallback on_sample)>;

/// DartMonitor behind the shard interface.
class DartReplayMonitor : public ReplayMonitor {
 public:
  DartReplayMonitor(const core::DartConfig& config,
                    core::SampleCallback on_sample)
      : monitor_(config, std::move(on_sample)) {}

  void process(const PacketRecord& packet) override {
    monitor_.process(packet);
  }
  void process_batch(std::span<const PacketRecord> packets) override {
    monitor_.process_all(packets);
  }
  core::DartStats stats() const override { return monitor_.stats(); }

  bool supports_checkpoint() const override { return true; }
  core::CheckpointImage snapshot(const core::SnapshotMeta& meta) const override {
    return monitor_.snapshot(meta);
  }
  SealedError restore(const core::CheckpointImage& image) override {
    return monitor_.restore(image);
  }

  core::DartMonitor& monitor() { return monitor_; }
  const core::DartMonitor& monitor() const { return monitor_; }

 private:
  core::DartMonitor monitor_;
};

/// Every shard runs a private DartMonitor built from the same config.
inline MonitorFactory dart_factory(const core::DartConfig& config) {
  return [config](std::uint32_t /*shard*/, core::SampleCallback on_sample) {
    return std::make_unique<DartReplayMonitor>(config, std::move(on_sample));
  };
}

/// Adapter for baseline monitors (TcpTrace, Strawman, DapperLike, ...):
/// any type with `process(const PacketRecord&)` works. Construct with a
/// ready-made instance whose sample callback is already wired:
///
///   ShardedMonitor sharded(cfg, [](std::uint32_t, core::SampleCallback cb) {
///     return make_basic_replay_monitor(
///         baseline::Strawman(sm_config, std::move(cb)));
///   });
template <typename M>
class BasicReplayMonitor : public ReplayMonitor {
 public:
  explicit BasicReplayMonitor(M monitor) : monitor_(std::move(monitor)) {}

  void process(const PacketRecord& packet) override {
    monitor_.process(packet);
  }
  core::DartStats stats() const override { return {}; }

  M& monitor() { return monitor_; }
  const M& monitor() const { return monitor_; }

 private:
  M monitor_;
};

template <typename M>
std::unique_ptr<ReplayMonitor> make_basic_replay_monitor(M monitor) {
  return std::make_unique<BasicReplayMonitor<M>>(std::move(monitor));
}

}  // namespace dart::runtime
