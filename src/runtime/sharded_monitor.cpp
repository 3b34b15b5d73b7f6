#include "runtime/sharded_monitor.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "core/config_check.hpp"
#include "runtime/epoch_math.hpp"

#if defined(DART_FAULT_INJECTION)
#include "runtime/fault_injection.hpp"
#endif

#if defined(DART_TELEMETRY)
#include "telemetry/runtime_metrics.hpp"
#endif

namespace dart::runtime {

ShardedMonitor::ShardedMonitor(const ShardedConfig& config,
                               MonitorFactory factory)
    : config_(config),
      router_(config.shards == 0 ? 1 : config.shards, config.route_seed) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.queue_batches == 0) config_.queue_batches = 1;
  start(std::move(factory));
}

// Validate before any shard exists so an infeasible config throws the
// pipeline checker's diagnostics without starting a single worker.
ShardedMonitor::ShardedMonitor(const ShardedConfig& config,
                               const core::DartConfig& dart_config)
    : ShardedMonitor(config,
                     dart_factory(core::ensure_feasible(dart_config))) {}

ShardedMonitor::~ShardedMonitor() { shutdown(); }

void ShardedMonitor::start(MonitorFactory factory) {
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_shared<Shard>(config_.queue_batches);
    shard->index = i;
    shard->batched = config_.batched_workers;
#if defined(DART_FAULT_INJECTION)
    shard->faults = config_.faults;
#endif
#if defined(DART_TELEMETRY)
    shard->metrics = config_.telemetry;
#endif
    // The callback writes the worker-private log and histogram: the worker
    // thread is the only caller of monitor->process, hence the only writer.
    // The callback lives in the shard's own monitor, so `owner` outlives it.
    Shard& owner = *shard;
    shard->monitor = factory(i, [&owner](const core::RttSample& sample) {
      owner.samples.append(sample);
      owner.rtt.add(sample.rtt());
    });
    shard->pending.reserve(config_.batch_size);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    // The worker keeps its own reference so a force-detached thread that
    // wakes up after this monitor is destroyed still touches live memory.
    shard->thread = std::thread(
        [keepalive = shard] { worker_loop(*keepalive); });
  }
}

void ShardedMonitor::worker_loop(Shard& shard) {
  PacketBatch batch;
  std::uint64_t batches_done = 0;
  bool killed = false;
  bool done_seen = false;
  for (;;) {
#if defined(DART_FAULT_INJECTION)
    if (shard.faults != nullptr &&
        shard.faults->before_pop(shard.index, batches_done) ==
            FaultPlan::Action::kExit) {
      killed = true;
      break;
    }
#endif
    if (shard.queue.try_pop(batch)) {
#if defined(DART_FAULT_INJECTION)
      if (shard.faults != nullptr) {
        shard.faults->after_pop(shard.index, batches_done);
      }
#endif
#if defined(DART_TELEMETRY)
      const auto batch_start = shard.metrics != nullptr
                                   ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
#endif
      if (shard.batched) {
        shard.monitor->process_batch(batch);
      } else {
        for (const PacketRecord& packet : batch) {
          shard.monitor->process(packet);
        }
      }
#if defined(DART_TELEMETRY)
      if (shard.metrics != nullptr) {
        const auto elapsed =
            std::chrono::steady_clock::now() - batch_start;
        shard.metrics->batch_latency->at(shard.index)
            .observe(static_cast<Timestamp>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count()));
        shard.metrics->batch_fill->at(shard.index)
            .observe(static_cast<Timestamp>(batch.size()));
        shard.metrics->worker_batches->at(shard.index).inc();
        shard.metrics->worker_packets->at(shard.index).inc(batch.size());
      }
#endif
      batch.clear();
      ++batches_done;
      continue;
    }
    // The done flag is published after the router's last push, so an empty
    // pop observed *after* the flag means the ring is empty for good.
    if (done_seen) break;
    if (shard.input_done.load(std::memory_order_acquire)) {
      done_seen = true;
      continue;  // one more pass drains anything pushed before the flag
    }
    std::this_thread::yield();
  }
  if (killed) shard.dead.store(true, std::memory_order_release);
  shard.final_stats = shard.monitor->stats();
  shard.exited.store(true, std::memory_order_release);
}

void ShardedMonitor::flush_shard(Shard& shard) {
  if (shard.pending.empty()) return;
  PacketBatch batch = std::move(shard.pending);
  shard.pending.clear();  // moved-from: restore a defined empty state
  shard.pending.reserve(config_.batch_size);
  shard.routed_packets += batch.size();
  push_or_shed(shard, std::move(batch));
#if defined(DART_TELEMETRY)
  if (config_.telemetry != nullptr) {
    config_.telemetry->ring_occupancy->at(shard.index)
        .set(static_cast<std::int64_t>(shard.queue.size_approx()));
  }
#endif
}

void ShardedMonitor::push_or_shed(Shard& shard, PacketBatch&& batch) {
  OverloadGovernor governor(config_.overload);
  bool contended = false;
#if defined(DART_TELEMETRY)
  telemetry::RuntimeMetrics* const tm = config_.telemetry;
  bool backoff_counted = false;
#endif
  for (;;) {
    // A dead worker consumes nothing ever again: shed without waiting.
    if (shard.dead.load(std::memory_order_relaxed)) break;
    if (shard.queue.try_push(std::move(batch))) return;
    if (!contended) {
      contended = true;
      ++shard.health.backpressure_events;
    }
    const OverloadDecision decision = governor.next();
    if (decision.action == OverloadAction::kShed) {
#if defined(DART_TELEMETRY)
      if (tm != nullptr) tm->governor_sheds->at(shard.index).inc();
#endif
      break;
    }
    if (decision.action == OverloadAction::kSleep) {
      ++shard.health.backoff_sleeps;
#if defined(DART_TELEMETRY)
      if (tm != nullptr) {
        tm->backpressure_sleeps->at(shard.index).inc();
        if (!backoff_counted) {
          backoff_counted = true;  // ladder transition, not per-sleep
          tm->governor_backoffs->at(shard.index).inc();
        }
      }
#endif
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(decision.sleep_ns));
    } else {
      std::this_thread::yield();
    }
  }
  ++shard.health.shed_batches;
  shard.health.shed_packets += batch.size();
}

void ShardedMonitor::process(const PacketRecord& packet) {
  if (finished_) {
    throw LifecycleError(LifecycleViolation::kProcessAfterFinish);
  }
  Shard& shard = *shards_[router_.route(packet.tuple)];
  shard.pending.push_back(packet);
  if (shard.pending.size() >= config_.batch_size) flush_shard(shard);
  ++routed_total_;
  if (config_.on_epoch &&
      closes_epoch(routed_total_, config_.epoch_interval_packets)) {
    // Router-thread barrier: fires between packets, so the callback can
    // publish fleet progress without racing the routing state.
    config_.on_epoch(++epochs_fired_, routed_total_);
  }
}

void ShardedMonitor::process_all(std::span<const PacketRecord> packets) {
  if (finished_) {
    throw LifecycleError(LifecycleViolation::kProcessAfterFinish);
  }
  for (const PacketRecord& packet : packets) process(packet);
}

std::uint64_t ShardedMonitor::shard_routed_cursor(std::uint32_t shard) const {
  const Shard& s = *shards_[shard];
  return s.routed_packets + s.pending.size();
}

void ShardedMonitor::join_or_detach(Shard& shard) {
  if (!shard.thread.joinable()) return;
  if (config_.join_timeout_ns == 0) {
    shard.thread.join();
    return;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(config_.join_timeout_ns);
  while (!shard.exited.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      // Deadline racing a clean exit must side with the worker: without
      // this final re-check, a worker that finishes its last batch right
      // at the deadline gets detached and its fully-merged stats and
      // samples silently discarded.
      if (shard.exited.load(std::memory_order_acquire)) break;
      // The worker is wedged. Abandon it with a diagnostic rather than
      // hanging shutdown forever; its keepalive reference makes a later
      // wake-up safe, and its results are written off as abandoned.
      shard.thread.detach();
      shard.detached = true;
      shard.health.forced_detaches = 1;
      shard.health.abandoned_packets =
          shard.routed_packets - shard.health.shed_packets;
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  shard.thread.join();
}

void ShardedMonitor::drain_as_shed(Shard& shard) {
  // Only called after the worker has exited (acquire on `exited` +
  // join), so this thread is the sole consumer of the ring.
  PacketBatch batch;
  while (shard.queue.try_pop(batch)) {
    ++shard.health.shed_batches;
    shard.health.shed_packets += batch.size();
    batch.clear();
  }
}

void ShardedMonitor::finish() {
  if (finished_) {
    throw LifecycleError(LifecycleViolation::kFinishAfterFinish);
  }
  shutdown();
}

void ShardedMonitor::shutdown() noexcept {
  if (finished_) return;
  finished_ = true;
  for (auto& shard : shards_) {
    flush_shard(*shard);
    shard->input_done.store(true, std::memory_order_release);
  }
  // Join only after every shard got its done flag, so workers drain in
  // parallel rather than serially behind the first join.
  for (auto& shard : shards_) join_or_detach(*shard);
  for (auto& shard : shards_) {
    if (shard->detached) {
      // Worker may still be running: its monitor stats and samples are
      // unreadable. Report only the router-side accounting (the dead flag
      // is atomic, so a kill observed before the detach still counts).
      if (shard->dead.load(std::memory_order_acquire)) {
        shard->health.workers_killed = 1;
      }
      shard->result = core::DartStats{};
    } else {
      if (shard->dead.load(std::memory_order_acquire)) {
        shard->health.workers_killed = 1;
        drain_as_shed(*shard);
      }
      shard->result = shard->final_stats;
    }
    shard->result.runtime = shard->health;
  }
#if defined(DART_TELEMETRY)
  // Quiesce fold: authoritative counters are written exactly once, from
  // the merged per-shard results, after workers have joined. Folding live
  // would double-count work a force-detached worker did but the merge
  // discarded.
  if (config_.telemetry != nullptr) {
    for (const auto& shard : shards_) {
      config_.telemetry->fold_authoritative(shard->index,
                                            shard->routed_packets,
                                            shard->result);
    }
  }
#endif
}

const analytics::SampleLog& ShardedMonitor::shard_samples(
    std::uint32_t shard) const {
  assert(finished_ && "results require finish()");
  static const analytics::SampleLog kEmpty;
  if (shards_[shard]->detached) return kEmpty;
  return shards_[shard]->samples;
}

core::DartStats ShardedMonitor::shard_stats(std::uint32_t shard) const {
  assert(finished_ && "results require finish()");
  return shards_[shard]->result;
}

core::DartStats ShardedMonitor::merged_stats() const {
  assert(finished_ && "results require finish()");
  core::DartStats merged;
  for (const auto& shard : shards_) merged += shard->result;
  return merged;
}

core::RuntimeHealth ShardedMonitor::health() const {
  assert(finished_ && "results require finish()");
  core::RuntimeHealth merged;
  for (const auto& shard : shards_) merged += shard->health;
  return merged;
}

std::vector<core::RttSample> ShardedMonitor::merged_samples() const {
  assert(finished_ && "results require finish()");
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    if (!shard->detached) total += shard->samples.size();
  }
  std::vector<core::RttSample> merged;
  merged.reserve(total);
  for (const auto& shard : shards_) {
    if (shard->detached) continue;
    const auto& samples = shard->samples.samples();
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  deterministic_order(merged);
  return merged;
}

analytics::LogHistogram ShardedMonitor::rtt_histogram() const {
  assert(finished_ && "results require finish()");
  analytics::LogHistogram merged;
  for (const auto& shard : shards_) {
    if (!shard->detached) merged.merge(shard->rtt);
  }
  return merged;
}

bool ShardedMonitor::await_detached(std::uint64_t timeout_ns) const {
  assert(finished_ && "await_detached() requires finish()");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout_ns);
  for (const auto& shard : shards_) {
    if (!shard->detached) continue;
    while (!shard->exited.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return true;
}

void deterministic_order(std::vector<core::RttSample>& samples) {
  std::sort(samples.begin(), samples.end(), core::sample_less);
}

}  // namespace dart::runtime
