// VantageExporter: one monitoring process's side of the fleet protocol.
//
// The exporter turns the runtime's per-epoch results into the sealed,
// sequence-numbered frame stream the collector ingests:
//
//   seq 0            manifest   — name + expected totals (the loss-window
//                                 denominator, known before packet 1)
//   seq 1..k         epoch frames at barrier cadence
//   seq k+1          final      — last cumulative state, stream complete
//
// A state frame carries the vantage's merged DartStats as they are (one
// binary stats section) and its RTT histogram. Epoch frames are cut at
// packet-count barriers (every epoch_interval packets), so two vantages
// replaying deterministic slices publish epoch-aligned state without any
// clock agreement. All counters in a frame are cumulative: losing any
// non-final frame loses no accounting.
//
// With a FaultPlan installed (set_fault_plan) the exporter consults it
// before every publish, which is where the chaos harness injects crashes
// (kill), latency (stall), torn frames (truncate), duplicate delivery, and
// reordering — all downstream of sealing, exactly as a sick transport
// would mangle a correct sender.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analytics/histogram.hpp"
#include "core/stats.hpp"
#include "fleet/frame.hpp"
#include "fleet/snapshot_sink.hpp"

namespace dart::runtime {
class FaultPlan;
}  // namespace dart::runtime

namespace dart::fleet {

struct VantageExporterConfig {
  std::uint64_t vantage = 0;
  std::string name;  ///< empty -> "v<id>"
  std::uint64_t expected_routed = 0;
  std::uint64_t planned_epochs = 0;
  std::uint64_t epoch_interval = 0;
};

class VantageExporter {
 public:
  VantageExporter(VantageExporterConfig config, SnapshotSink& sink);

  /// Install the process's fault plan (exporter-side faults only). The
  /// plan must outlive the exporter.
  void set_fault_plan(runtime::FaultPlan* plan) { faults_ = plan; }

  /// Frame 0. Must be the first publication.
  bool publish_manifest();

  /// Cumulative state at epoch barrier `epoch`, after `cursor` packets:
  /// the vantage's merged counters, whose processed + shed + abandoned +
  /// lost_to_crash must equal `cursor`. `rtt_histogram`, when given, is
  /// the vantage's *cumulative* log-binned RTT distribution — the
  /// collector folds it into the fleet quantiles, so its count must equal
  /// `stats.samples`.
  bool publish_epoch(std::uint64_t epoch, std::uint64_t cursor,
                     const core::DartStats& stats,
                     const analytics::LogHistogram* rtt_histogram = nullptr);

  /// Last cumulative state; marks the stream complete.
  bool publish_final(std::uint64_t epoch, std::uint64_t cursor,
                     const core::DartStats& stats,
                     const analytics::LogHistogram* rtt_histogram = nullptr);

  /// True once a kill fault (or sink failure) has fired: the process is
  /// considered crashed and every later publish is a no-op returning false.
  bool killed() const { return killed_; }

  std::uint64_t frames_published() const { return frames_published_; }
  const VantageExporterConfig& config() const { return config_; }

 private:
  /// publish_epoch and publish_final, which differ only in `kind`.
  bool publish_state(FrameKind kind, std::uint64_t epoch, std::uint64_t cursor,
                     const core::DartStats& stats,
                     const analytics::LogHistogram* rtt_histogram);
  bool publish_frame(SnapshotFrame frame);
  bool deliver(std::vector<std::uint8_t> bytes, std::uint64_t sequence);

  VantageExporterConfig config_;
  SnapshotSink& sink_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t publish_index_ = 0;
  std::uint64_t frames_published_ = 0;
  bool killed_ = false;
  /// A frame held back by a reorder fault; delivered after its successor.
  struct HeldFrame {
    std::vector<std::uint8_t> bytes;
    std::uint64_t sequence = 0;
  };
  std::optional<HeldFrame> held_;
  runtime::FaultPlan* faults_ = nullptr;
};

}  // namespace dart::fleet
