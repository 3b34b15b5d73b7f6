// Counters exposed by a Dart monitor.
//
// `recirculations` divided by `packets_processed` is the paper's
// "recirculations incurred per packet" metric (Figures 11c/12c/13c).
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>

#include "common/sealed.hpp"

namespace dart::core {

/// True when `parts` add up to exactly `total`. Summed by subtraction, so
/// no wrap-around can balance a hostile set of counters.
inline bool sums_to(std::span<const std::uint64_t> parts,
                    std::uint64_t total) {
  for (const std::uint64_t part : parts) {
    if (part > total) return false;
    total -= part;
  }
  return total == 0;
}

/// Health counters of the replay *runtime* around a monitor: what the
/// sharded router shed or abandoned when a worker fell behind, died, or
/// wedged. All zeros in a healthy run (and always in a single-threaded
/// one); nonzero fields quantify exactly how much coverage was traded for
/// liveness. Folded into DartStats so the merge path carries degradation
/// accounting alongside the monitor counters.
struct RuntimeHealth {
  std::uint64_t shed_batches = 0;   ///< batches dropped by the OverloadPolicy
  std::uint64_t shed_packets = 0;   ///< packets inside those batches
  std::uint64_t backpressure_events = 0;  ///< flushes that found a full ring
  std::uint64_t backoff_sleeps = 0;       ///< sleeps taken while backpressured
  std::uint64_t workers_killed = 0;   ///< workers that exited mid-replay
  std::uint64_t forced_detaches = 0;  ///< workers abandoned at join timeout
  /// Packets handed to a worker that was later force-detached: neither
  /// processed-and-merged nor shed, so they are unaccounted coverage loss.
  std::uint64_t abandoned_packets = 0;

  // Crash-recovery accounting (ShardedMonitor's checkpoint/restart
  // policy). The extended identity is
  //
  //     processed + shed + abandoned + lost_to_crash == routed
  //
  // where `lost_to_crash` is exactly the post-checkpoint window a crashed
  // worker had processed but whose state was rolled back at restore.
  std::uint64_t recovered = 0;  ///< workers restarted from a checkpoint
  /// Packets re-queued from a dead worker's ring/limbo to its successor:
  /// delivered twice to the shard, processed exactly once.
  std::uint64_t replayed_after_restore = 0;
  /// Packets processed after the last checkpoint by a worker that then
  /// crashed: their state effects were discarded by the rollback. Bounded
  /// by the checkpoint interval when barriers are flowing.
  std::uint64_t lost_to_crash = 0;

  /// True when any coverage was lost (shedding, death, abandonment, or a
  /// rolled-back crash window). Backpressure alone is not degradation — it
  /// is the design working — and neither is a recovery that lost nothing.
  bool degraded() const {
    return shed_packets != 0 || workers_killed != 0 || forced_detaches != 0 ||
           abandoned_packets != 0 || lost_to_crash != 0;
  }

  RuntimeHealth& operator+=(const RuntimeHealth& other);

  friend bool operator==(const RuntimeHealth&, const RuntimeHealth&) =
      default;

  friend RuntimeHealth operator+(RuntimeHealth lhs, const RuntimeHealth& rhs) {
    lhs += rhs;
    return lhs;
  }

  std::string summary() const;  // hotpath-ok: end-of-run reporting
};

struct DartStats {
  // Input.
  std::uint64_t packets_processed = 0;
  std::uint64_t filtered_packets = 0;  ///< skipped by the flow filter (§4)
  std::uint64_t seq_candidates = 0;  ///< data packets on the monitored leg
  std::uint64_t ack_candidates = 0;  ///< ACK packets on the monitored leg
  std::uint64_t syn_ignored = 0;     ///< dropped by the -SYN rule

  // Range Tracker outcomes.
  std::uint64_t rt_new_flows = 0;
  std::uint64_t rt_flow_overwrites = 0;  ///< hash-slot takeovers (bounded RT)
  std::uint64_t rt_idle_timeouts = 0;    ///< ranges abandoned by the timeout
  std::uint64_t seq_tracked = 0;
  std::uint64_t seq_in_order = 0;
  std::uint64_t seq_hole_reanchors = 0;
  std::uint64_t seq_retransmissions = 0;  ///< range collapses from SEQs
  std::uint64_t wraparound_resets = 0;
  std::uint64_t ack_advances = 0;
  std::uint64_t ack_duplicates = 0;  ///< range collapses from dup ACKs
  std::uint64_t ack_below_left = 0;
  std::uint64_t ack_optimistic = 0;
  std::uint64_t ack_no_entry = 0;

  // Packet Tracker outcomes.
  std::uint64_t pt_inserted = 0;
  std::uint64_t pt_evictions = 0;
  std::uint64_t pt_lookup_hits = 0;   ///< == samples emitted
  std::uint64_t pt_lookup_misses = 0;
  std::uint64_t recirculations = 0;
  std::uint64_t dual_role_recirculations = 0;  ///< LegMode::kBoth overhead
  std::uint64_t drops_budget = 0;   ///< recirculation budget exhausted
  std::uint64_t drops_stale = 0;    ///< failed RT re-validation (self-destruct)
  std::uint64_t drops_cycle = 0;    ///< ping-pong cycle detected
  std::uint64_t drops_useless = 0;  ///< analytics usefulness filter
  std::uint64_t drops_shadow = 0;   ///< shadow-RT inline staleness check
  std::uint64_t drops_policy = 0;   ///< kNeverEvict collisions

  std::uint64_t samples = 0;

  /// Degradation accounting of the runtime that drove this monitor. A bare
  /// DartMonitor never touches it; the sharded runtime fills it per shard
  /// and the merge path sums it like every other counter.
  RuntimeHealth runtime;

  /// Fold another monitor's counters into this one. Every field is a sum,
  /// so merging per-shard stats from a flow-partitioned run reproduces the
  /// single-monitor totals exactly (each packet is processed by exactly one
  /// shard).
  DartStats& operator+=(const DartStats& other);
  DartStats& merge(const DartStats& other) { return *this += other; }

  /// Field-wise equality (RuntimeHealth included) — what the batch
  /// differential suite asserts between scalar and batched runs.
  friend bool operator==(const DartStats&, const DartStats&) = default;

  friend DartStats operator+(DartStats lhs, const DartStats& rhs) {
    lhs += rhs;
    return lhs;
  }

  /// The routed identity,
  ///     processed + shed + abandoned + lost_to_crash == routed,
  /// for `routed` packets handed to the monitor(s) these stats settle.
  bool accounts_for(std::uint64_t routed) const {
    return sums_to(std::array{packets_processed, runtime.shed_packets,
                              runtime.abandoned_packets, runtime.lost_to_crash},
                   routed);
  }

  double recirculations_per_packet() const {
    return packets_processed == 0
               ? 0.0
               : static_cast<double>(recirculations) /
                     static_cast<double>(packets_processed);
  }

  /// Serialize every counter (RuntimeHealth included) into an open
  /// section, a checkpoint's or a fleet frame's stats section alike;
  /// restore() is the exact inverse. Quiesce-time only.
  void snapshot(SealedWriter& writer) const;
  SealedError restore(SealedReader& reader);

  std::string summary() const;  // hotpath-ok: end-of-run reporting
};

// Every counter, listed once in one fixed order, with the name it is
// exported under. The sums, the checkpoint writer and reader, the fleet
// frame's stats section and RuntimeMetrics' dart_<name>_total families all
// walk these tables, so a counter added here is summed, serialized,
// restored and exported exactly once; the static_asserts refuse a struct
// field that no table names. Renaming an entry renames a metric on
// /metrics, and reordering entries changes the byte layout of every sealed
// stats section (checkpoints and fleet frames alike).
template <class Owner>
struct StatField {
  std::uint64_t Owner::* member;
  std::string_view name;  ///< exported as dart_<name>_total
  /// False for counters of waits rather than packets: their values follow
  /// thread timing, so deterministic exports leave them out.
  bool deterministic = true;
};

inline constexpr StatField<RuntimeHealth> kHealthFields[] = {
    {&RuntimeHealth::shed_batches, "shed_batches"},
    {&RuntimeHealth::shed_packets, "shed"},
    {&RuntimeHealth::backpressure_events, "backpressure_events", false},
    {&RuntimeHealth::backoff_sleeps, "backoff_sleeps", false},
    {&RuntimeHealth::workers_killed, "workers_killed"},
    {&RuntimeHealth::forced_detaches, "workers_detached"},
    {&RuntimeHealth::abandoned_packets, "abandoned"},
    {&RuntimeHealth::recovered, "workers_recovered"},
    {&RuntimeHealth::replayed_after_restore, "replayed_after_restore"},
    {&RuntimeHealth::lost_to_crash, "lost_to_crash"},
};

/// DartStats' own counters; `runtime` is covered by kHealthFields.
inline constexpr StatField<DartStats> kStatFields[] = {
    {&DartStats::packets_processed, "processed"},
    {&DartStats::filtered_packets, "filtered_packets"},
    {&DartStats::seq_candidates, "seq_candidates"},
    {&DartStats::ack_candidates, "ack_candidates"},
    {&DartStats::syn_ignored, "syn_ignored"},
    {&DartStats::rt_new_flows, "rt_new_flows"},
    {&DartStats::rt_flow_overwrites, "rt_flow_overwrites"},
    {&DartStats::rt_idle_timeouts, "rt_idle_timeouts"},
    {&DartStats::seq_tracked, "seq_tracked"},
    {&DartStats::seq_in_order, "seq_in_order"},
    {&DartStats::seq_hole_reanchors, "seq_hole_reanchors"},
    {&DartStats::seq_retransmissions, "seq_retransmissions"},
    {&DartStats::wraparound_resets, "wraparound_resets"},
    {&DartStats::ack_advances, "ack_advances"},
    {&DartStats::ack_duplicates, "ack_duplicates"},
    {&DartStats::ack_below_left, "ack_below_left"},
    {&DartStats::ack_optimistic, "ack_optimistic"},
    {&DartStats::ack_no_entry, "ack_no_entry"},
    {&DartStats::pt_inserted, "pt_inserted"},
    {&DartStats::pt_evictions, "pt_evictions"},
    {&DartStats::pt_lookup_hits, "pt_lookup_hits"},
    {&DartStats::pt_lookup_misses, "pt_lookup_misses"},
    {&DartStats::recirculations, "recirculations"},
    {&DartStats::dual_role_recirculations, "dual_role_recirculations"},
    {&DartStats::drops_budget, "drops_budget"},
    {&DartStats::drops_stale, "drops_stale"},
    {&DartStats::drops_cycle, "drops_cycle"},
    {&DartStats::drops_useless, "drops_useless"},
    {&DartStats::drops_shadow, "drops_shadow"},
    {&DartStats::drops_policy, "drops_policy"},
    {&DartStats::samples, "samples"},
};

/// Every counter, RuntimeHealth included: the field count that both the
/// checkpoint's stats section and the fleet frame's stats section lead
/// with, so a reader built with other tables refuses the section.
inline constexpr std::uint32_t kStatCounters = static_cast<std::uint32_t>(
    std::size(kStatFields) + std::size(kHealthFields));

static_assert(sizeof(RuntimeHealth) ==
                  std::size(kHealthFields) * sizeof(std::uint64_t),
              "a RuntimeHealth counter is missing from kHealthFields");
static_assert(sizeof(DartStats) ==
                  std::size(kStatFields) * sizeof(std::uint64_t) +
                      sizeof(RuntimeHealth),
              "a DartStats counter is missing from kStatFields");

}  // namespace dart::core
