#include "telemetry/runtime_metrics.hpp"

namespace dart::telemetry {

RuntimeMetrics::RuntimeMetrics(Registry& reg) : registry(&reg) {
  const auto live = [](const char* help) {
    return FamilyOptions{.help = help, .deterministic = false};
  };

  routed = &reg.counter("dart_routed_total",
                        {.help = "packets enqueued to the shard by the "
                                 "router, shed included"});
  auto settled_family = settled.begin();
  const auto add = [&](const auto& field, const char* help) {
    std::string name = "dart_";
    name += field.name;
    name += "_total";
    *settled_family++ = &reg.counter(
        name, {.help = help, .deterministic = field.deterministic});
  };
  for (const auto& field : core::kStatFields) {
    add(field, "Dart monitor counter (core::DartStats), settled at quiesce");
  }
  for (const auto& field : core::kHealthFields) {
    add(field, "runtime health counter (core::RuntimeHealth), settled at "
               "quiesce");
  }

  worker_batches = &reg.counter(
      "dart_worker_batches_total",
      live("batches dequeued by workers (live heartbeat)"));
  worker_packets = &reg.counter(
      "dart_worker_packets_total",
      live("packets dequeued by workers (live heartbeat; crash windows "
           "are not rolled back here)"));
  backpressure_sleeps = &reg.counter(
      "dart_backpressure_sleeps_total",
      live("router sleeps while a shard ring was full"));
  governor_backoffs = &reg.counter(
      "dart_governor_backoffs_total",
      live("overload-governor transitions into backoff"));
  governor_sheds = &reg.counter(
      "dart_governor_sheds_total",
      live("overload-governor transitions into shedding"));
  checkpoint_commits = &reg.counter(
      "dart_checkpoint_commits_total",
      live("checkpoint epochs committed by the coordinator"));
  checkpoint_rejected = &reg.counter(
      "dart_checkpoint_rejected_total",
      live("checkpoint contributions rejected (stale epoch or fencing)"));
  ring_occupancy = &reg.gauge(
      "dart_ring_occupancy",
      live("approximate shard ring occupancy at last router flush"));
  batch_latency = &reg.histogram(
      "dart_batch_latency_ns",
      {.help = "wall-clock latency of one worker batch (ns)"});
  batch_fill = &reg.histogram(
      "dart_batch_fill",
      {.help = "packets per dequeued ring batch (SoA hot-path fill level)"});
  commit_latency = &reg.histogram(
      "dart_commit_latency_ns",
      {.help = "wall-clock latency of one checkpoint commit (ns)",
       .slots = 1,  // the coordinator is a single writer
       .max_value = sec(100)});
}

void RuntimeMetrics::fold_authoritative(std::size_t shard,
                                        std::uint64_t routed_to_shard,
                                        const core::DartStats& result) {
  routed->at(shard).set(routed_to_shard);
  auto settled_family = settled.begin();
  for (const auto& field : core::kStatFields) {
    (*settled_family++)->at(shard).set(result.*field.member);
  }
  for (const auto& field : core::kHealthFields) {
    (*settled_family++)->at(shard).set(result.runtime.*field.member);
  }
}

}  // namespace dart::telemetry
