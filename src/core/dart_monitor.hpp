// DartMonitor: the complete Dart pipeline (Figure 3 of the paper).
//
//   packet -> [leg/role classification] -> Range Tracker -> Packet Tracker
//                                             ^                 |
//                                             +-- recirculation +--> samples
//
// SEQ packets are validated against (and update) the flow's measurement
// range in the Range Tracker; valid ones are recorded in the Packet Tracker
// awaiting their ACK. An ACK that advances the range and exactly matches a
// tracked record's expected ACK produces an RTT sample. A record displaced
// from the PT by a hash collision is recirculated for a second chance: it
// re-consults the RT (stale records self-destruct) and attempts reinsertion,
// bounded by a per-record recirculation budget and ping-pong cycle
// detection. An optional analytics usefulness filter (Section 3.3) vetoes
// recirculations that could not produce a useful sample.
//
// Recirculation in this model is synchronous: the displaced record re-enters
// the pipeline before the next packet is processed. The hardware prototype
// handles the in-flight race this avoids by updating a matching RT entry on
// re-entry (Section 4, "Reordering among recirculated records").
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/packet.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/flow_filter.hpp"
#include "core/packet_tracker.hpp"
#include "core/range_tracker.hpp"
#include "core/rtt_sample.hpp"
#include "core/stats.hpp"

namespace dart::core {

class DartMonitor {
 public:
  explicit DartMonitor(const DartConfig& config,
                       SampleCallback on_sample = {});

  /// Install the analytics module's preemptive-discard hook (Section 3.3).
  /// The filter must outlive the monitor. Pass nullptr to remove.
  void set_usefulness_filter(const UsefulnessFilter* filter) {
    filter_ = filter;
  }

  /// Install operator flow-selection rules (Section 4): packets of
  /// connections the filter does not track are skipped entirely. The filter
  /// must outlive the monitor; nullptr (default) tracks everything.
  void set_flow_filter(const FlowFilter* filter) { flow_filter_ = filter; }

  /// Subscribe to measurement-range collapses (Section 3.1): their
  /// frequency is a congestion indicator the analytics can aggregate per
  /// flow or prefix even while collapses suppress RTT samples.
  void set_collapse_callback(CollapseCallback callback) {
    on_collapse_ = std::move(callback);
  }

  /// Subscribe to detected optimistic ACKs (Section 7): ACKs beyond the
  /// right edge are ignored for measurement and reported here.
  void set_optimistic_ack_callback(OptimisticAckCallback callback) {
    on_optimistic_ = std::move(callback);
  }

  /// Process one packet in monitor-arrival order.
  void process(const PacketRecord& packet);

  /// Process a contiguous run of packets in order, exactly as one
  /// process() call each: the span entry point the sharded runtime's
  /// workers call once per ring batch. Its loop is compiled as one body
  /// with every per-packet probe it reaches (DESIGN.md §11).
  void process_all(std::span<const PacketRecord> packets);

  const DartStats& stats() const { return stats_; }
  const DartConfig& config() const { return config_; }
  const RangeTracker& range_tracker() const { return rt_; }
  const PacketTracker& packet_tracker() const { return pt_; }

  /// Mutable stats access for the runtime that drives this monitor (it
  /// folds recovery/degradation accounting into the shard's counters).
  DartStats& mutable_stats() { return stats_; }

  /// Cut a complete, self-validating image of the monitor: config
  /// fingerprint, stats, both tracker tables, shadow state, and the
  /// installed flow filter. Quiesce-time only — the caller must guarantee
  /// no process() call is concurrent with the cut.
  CheckpointImage snapshot(const SnapshotMeta& meta) const;

  /// Rehydrate from an image cut by an *identically configured* monitor
  /// (same table geometry, seeds, leg/policy modes, and installed flow
  /// filter — anything else is a kGeometryMismatch). All-or-nothing: on any
  /// error the monitor's previous state is kept bit for bit.
  SealedError restore(const CheckpointImage& image);

 private:
  /// The one per-packet body process() and process_all() share.
  void step(const PacketRecord& packet);
  bool admit(const PacketRecord& packet);
  void handle_seq(const FourTuple& tuple, SeqNum seq, SeqNum eack,
                  Timestamp now, LegMode leg, std::uint64_t tuple_hash);
  void handle_ack(const FourTuple& data_tuple, SeqNum ack, Timestamp now,
                  bool pure_ack, LegMode leg, std::uint64_t tuple_hash);
  void place(PacketTracker::Record record, Timestamp now);
  void buffer_for_shadow(const PacketRecord& packet);
  // Cold: runs once per shadow_sync_interval packets, so the span loop
  // calls it rather than carrying a second copy of the RT probes.
  [[gnu::noinline]] void sync_shadow();

  DartConfig config_;
  SampleCallback on_sample_;
  CollapseCallback on_collapse_;
  OptimisticAckCallback on_optimistic_;
  const UsefulnessFilter* filter_ = nullptr;
  const FlowFilter* flow_filter_ = nullptr;
  RangeTracker rt_;
  PacketTracker pt_;
  DartStats stats_;

  // Shadow RT (Section 7): replica updated by replaying buffered packets
  // every shadow_sync_interval packets, so it lags the original.
  std::unique_ptr<RangeTracker> shadow_rt_;
  std::vector<PacketRecord> shadow_backlog_;
};

}  // namespace dart::core
