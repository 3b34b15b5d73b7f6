// The standard metric families the sharded runtime exports.
//
// Two disjoint tiers, split by where truth lives:
//
//  * **Authoritative** (settled): dart_routed_total, plus one
//    dart_<name>_total family per counter of core::kStatFields and
//    core::kHealthFields, under the name the table gives it. Live
//    increments of these would double-count rolled-back crash windows and
//    count work a force-detached worker did but the merge discarded, so
//    they are written exactly once, by fold_authoritative(), after the
//    runtime's own accounting has settled. They satisfy the identity
//        processed + shed + abandoned + lost_to_crash == routed
//    and, except the two the tables mark timing-dependent
//    (backpressure_events, backoff_sleeps: they count waits, not
//    packets), are what deterministic-only snapshots export.
//
//  * **Live** (wall-clock): heartbeat counters, gauges, and latency
//    histograms written from the hot paths as work happens. They exist for
//    dart-top's moving picture and may legitimately disagree with the
//    authoritative tier mid-run (and, after crashes, even at the end).
#pragma once

#include <array>

#include "core/stats.hpp"
#include "telemetry/registry.hpp"

namespace dart::telemetry {

struct RuntimeMetrics {
  /// Registers every standard family in `registry` (idempotent: families
  /// are get-or-create, so several runtimes may share one registry).
  explicit RuntimeMetrics(Registry& registry);

  Registry* registry = nullptr;

  // -- Authoritative tier (set by fold_authoritative) --
  CounterFamily* routed = nullptr;
  /// One family per table entry: kStatFields, then kHealthFields.
  std::array<CounterFamily*, core::kStatCounters> settled{};

  // -- Live tier --
  CounterFamily* worker_batches = nullptr;
  CounterFamily* worker_packets = nullptr;
  CounterFamily* backpressure_sleeps = nullptr;
  CounterFamily* governor_backoffs = nullptr;
  CounterFamily* governor_sheds = nullptr;
  CounterFamily* checkpoint_commits = nullptr;
  CounterFamily* checkpoint_rejected = nullptr;
  GaugeFamily* ring_occupancy = nullptr;
  HistogramFamily* batch_latency = nullptr;
  HistogramFamily* batch_fill = nullptr;  ///< packets per dequeued batch
  HistogramFamily* commit_latency = nullptr;

  /// Write one shard's authoritative counters from its merged result.
  /// `routed_to_shard` is the router-side count of packets enqueued to the
  /// shard (shed included); every other family comes from `result`.
  void fold_authoritative(std::size_t shard, std::uint64_t routed_to_shard,
                          const core::DartStats& result);
};

}  // namespace dart::telemetry
