#include "runtime/sharded_monitor.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "core/config_check.hpp"

#if defined(DART_FAULT_INJECTION)
#include "runtime/fault_injection.hpp"
#endif

#if defined(DART_TELEMETRY)
#include "telemetry/runtime_metrics.hpp"
#endif

namespace dart::runtime {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Poll a worker's exited flag until it is set or `deadline` passes. The
// final re-check sides with a worker that exits right at the deadline:
// without it, a worker that finishes its last batch as the deadline fires
// would be detached and its fully-merged results discarded.
bool wait_exited(const std::atomic<bool>& exited, Clock::time_point deadline) {
  while (!exited.load(std::memory_order_acquire)) {
    if (Clock::now() >= deadline) {
      return exited.load(std::memory_order_acquire);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

}  // namespace

ShardedMonitor::ShardedMonitor(const ShardedConfig& config,
                               MonitorFactory factory)
    : config_(config),
      factory_(std::move(factory)),
      router_(config.shards == 0 ? 1 : config.shards, config.route_seed),
      coordinator_(std::make_shared<CheckpointCoordinator>(router_.shards())),
      barriers_(config.checkpoint.enabled()) {
  config_.shards = router_.shards();
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.queue_batches == 0) config_.queue_batches = 1;
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->pending.reserve(config_.batch_size);
    shards_.push_back(std::move(shard));
  }
  // Every monitor is built before any worker starts, so a throwing factory
  // leaves no thread behind.
  for (auto& shard : shards_) incarnate(*shard, 0, nullptr);
  for (auto& shard : shards_) launch(*shard);
}

// Validate before any shard exists so an infeasible config throws the
// pipeline checker's diagnostics without starting a single worker.
ShardedMonitor::ShardedMonitor(const ShardedConfig& config,
                               const core::DartConfig& dart_config)
    : ShardedMonitor(config,
                     dart_factory(core::ensure_feasible(dart_config))) {}

ShardedMonitor::~ShardedMonitor() { shutdown(); }

bool ShardedMonitor::incarnate(Shard& shard, std::uint64_t base_cursor,
                               const core::CheckpointImage* image) {
  auto inc = std::make_shared<Incarnation>(config_.queue_batches);
  inc->shard = shard.index;
  // Taking ownership here is the fence: any commit still in flight from a
  // predecessor (or a released zombie) is rejected from this instant.
  inc->id = coordinator_->begin_incarnation(shard.index);
  inc->base_cursor = base_cursor;
  inc->coordinator = coordinator_;
#if defined(DART_FAULT_INJECTION)
  inc->faults = config_.faults;
#endif
#if defined(DART_TELEMETRY)
  inc->metrics = config_.telemetry;
#endif
  // The callback writes the incarnation's private histogram (and log, if
  // samples are kept): its worker thread is the only caller of
  // monitor->process, hence the only writer. The callback lives in the
  // incarnation's own monitor, so `raw` outlives it.
  Incarnation* raw = inc.get();
  const bool keep = config_.keep_samples;
  inc->monitor =
      factory_(shard.index, [raw, keep](const core::RttSample& sample) {
        if (keep) raw->samples.append(sample);
        raw->rtt.add(sample.rtt());
      });
  bool restored = false;
  if (image != nullptr && inc->monitor->supports_checkpoint()) {
    restored = !inc->monitor->restore(*image);
  }
  shard.inc = std::move(inc);
  shard.hb_armed = false;
  return restored;
}

void ShardedMonitor::launch(Shard& shard) {
  shard.inc->thread =
      std::thread([keepalive = shard.inc] { worker_loop(*keepalive); });
}

// ---------------------------------------------------------------------------
// Worker side.

void ShardedMonitor::commit_barrier(Incarnation& inc, const Work& marker) {
  // The marker is an in-band quiesce point: every packet delivered before it
  // has been processed, so the monitor state *is* the state at stream
  // position marker.cursor.
  assert(inc.base_cursor + inc.packets_done.load(std::memory_order_relaxed) ==
         marker.cursor);
  core::SnapshotMeta meta;
  meta.epoch = marker.epoch;
  meta.cursor = marker.cursor;
  meta.sample_cursor = inc.monitor->stats().samples;
  core::CheckpointImage image;
  if (inc.monitor->supports_checkpoint()) image = inc.monitor->snapshot(meta);
#if defined(DART_TELEMETRY)
  const auto commit_start =
      inc.metrics != nullptr ? Clock::now() : Clock::time_point{};
#endif
  // Fenced: a zombie's commit is rejected and its samples discarded — they
  // belong to a window already written off.
  const bool accepted =
      inc.coordinator->commit(inc.shard, inc.id, std::move(image), meta,
                              std::move(inc.samples), std::move(inc.rtt));
  inc.samples.clear();
  inc.rtt = analytics::LogHistogram{};
#if defined(DART_TELEMETRY)
  if (inc.metrics != nullptr) {
    const auto elapsed = Clock::now() - commit_start;
    inc.metrics->commit_latency->at(0).observe(static_cast<Timestamp>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    if (accepted) {
      inc.metrics->checkpoint_commits->at(inc.shard).inc();
    } else {
      inc.metrics->checkpoint_rejected->at(inc.shard).inc();
    }
  }
#else
  (void)accepted;
#endif
}

void ShardedMonitor::worker_loop(Incarnation& inc) {
  Work work;
  bool done_seen = false;
  for (;;) {
    if (inc.queue.try_pop(work)) {
      if (work.epoch != 0) {
        commit_barrier(inc, work);
        continue;
      }
#if defined(DART_FAULT_INJECTION)
      if (inc.faults != nullptr) {
        if (inc.faults->before_pop(inc.shard, inc.batches_done) ==
            FaultPlan::Action::kExit) {
          // Park the popped-but-unprocessed batch: a kill loses only
          // processed-uncommitted state, never in-flight input — which is
          // why a kill landing on a barrier loses nothing at all.
          inc.limbo = std::move(work);
          inc.dead.store(true, std::memory_order_release);
          break;
        }
        inc.faults->after_pop(inc.shard, inc.batches_done);
      }
#endif
#if defined(DART_TELEMETRY)
      const auto batch_start =
          inc.metrics != nullptr ? Clock::now() : Clock::time_point{};
#endif
      inc.monitor->process_batch(work.batch);
      inc.packets_done.fetch_add(work.batch.size(),
                                 std::memory_order_release);
#if defined(DART_TELEMETRY)
      if (inc.metrics != nullptr) {
        const auto elapsed = Clock::now() - batch_start;
        inc.metrics->batch_latency->at(inc.shard).observe(
            static_cast<Timestamp>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                    .count()));
        inc.metrics->batch_fill->at(inc.shard).observe(
            static_cast<Timestamp>(work.batch.size()));
        inc.metrics->worker_batches->at(inc.shard).inc();
        inc.metrics->worker_packets->at(inc.shard).inc(work.batch.size());
      }
#endif
#if defined(DART_FAULT_INJECTION)
      ++inc.batches_done;
#endif
      work.batch.clear();
      continue;
    }
    // The done flag is published after the router's last push, so an empty
    // pop observed *after* the flag means the ring is empty for good.
    if (done_seen) break;
    if (inc.input_done.load(std::memory_order_acquire)) {
      done_seen = true;
      continue;  // one more pass drains anything pushed before the flag
    }
    std::this_thread::yield();
  }
  inc.final_stats = inc.monitor->stats();
  inc.exited.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Router side: delivery, barriers, health watching.

void ShardedMonitor::process(const PacketRecord& packet) {
  process_all(std::span(&packet, 1));
}

void ShardedMonitor::process_all(std::span<const PacketRecord> packets) {
  if (finished_) {
    throw LifecycleError(LifecycleViolation::kProcessAfterFinish);
  }
  const std::uint64_t interval =
      config_.on_epoch ? config_.epoch_interval_packets : 0;
  while (!packets.empty()) {
    // One segment runs up to the next epoch boundary or the end of the
    // span, so the hook costs one division per segment, not per packet.
    std::size_t segment = packets.size();
    bool closes = false;
    if (interval != 0) {
      const std::uint64_t to_boundary = interval - routed_total_ % interval;
      if (to_boundary <= segment) {
        segment = static_cast<std::size_t>(to_boundary);
        closes = true;
      }
    }
    route_segment(packets.first(segment));
    packets = packets.subspan(segment);
    if (closes) {
      // Router-thread barrier: fires between packets, so the callback can
      // publish fleet progress without racing the routing state.
      config_.on_epoch(++epochs_fired_, routed_total_);
    }
  }
}

void ShardedMonitor::route_segment(std::span<const PacketRecord> packets) {
  const std::size_t routed = packets.size();
  if (shards_.size() == 1 && !barriers_) {
    // Every packet goes to shard 0 and no barrier can fall between two of
    // them: append whole runs, flushing at the packets the per-packet
    // path below would flush at.
    Shard& shard = *shards_[0];
    while (!packets.empty()) {
      const auto run = packets.first(std::min(
          packets.size(), config_.batch_size - shard.pending.size()));
      shard.pending.insert(shard.pending.end(), run.begin(), run.end());
      if (shard.pending.size() >= config_.batch_size) flush_shard(shard);
      packets = packets.subspan(run.size());
    }
  } else {
    for (const PacketRecord& packet : packets) {
      Shard& shard = *shards_[router_.route(packet.tuple)];
      shard.pending.push_back(packet);
      if (shard.pending.size() >= config_.batch_size) flush_shard(shard);
      if (barriers_) maybe_barrier(shard, packet.ts);
    }
  }
  routed_total_ += routed;
}

std::uint64_t ShardedMonitor::shard_routed_cursor(std::uint32_t shard) const {
  const Shard& s = *shards_[shard];
  return s.routed + s.pending.size();
}

void ShardedMonitor::flush_shard(Shard& shard) {
  if (shard.pending.empty()) return;
  Work work;
  work.batch = std::move(shard.pending);
  shard.pending.clear();  // moved-from: restore a defined empty state
  shard.pending.reserve(config_.batch_size);
  shard.routed += work.batch.size();
  deliver(shard, std::move(work));
}

void ShardedMonitor::maybe_barrier(Shard& shard, Timestamp ts) {
  if (shard.retired) return;
  if (!shard.barrier_ts_armed) {
    shard.barrier_ts_armed = true;
    shard.last_barrier_ts = ts;
  }
  const CheckpointPolicy& policy = config_.checkpoint;
  const bool packets_due =
      policy.interval_packets != 0 &&
      shard.delivered + shard.pending.size() - shard.last_barrier_delivered >=
          policy.interval_packets;
  const bool vtime_due = policy.interval_vtime_ns != 0 &&
                         ts - shard.last_barrier_ts >= policy.interval_vtime_ns;
  if (!packets_due && !vtime_due) return;
  // Epoch barrier: everything routed so far goes in front of the marker,
  // so the marker's cursor is exactly the shard stream position it cuts.
  flush_shard(shard);
  Work marker;
  marker.epoch = ++shard.epoch;
  marker.cursor = shard.delivered;
  shard.last_barrier_delivered = shard.delivered;
  shard.last_barrier_ts = ts;
  deliver(shard, std::move(marker));
}

void ShardedMonitor::shed(Shard& shard, const Work& work) {
  if (work.epoch != 0) return;  // a skipped barrier sheds no coverage
  ++shard.health.shed_batches;
  shard.health.shed_packets += work.batch.size();
}

void ShardedMonitor::deliver(Shard& shard, Work&& work) {
  const std::uint64_t packets = work.batch.size();
  OverloadGovernor governor(config_.overload);
  bool contended = false;
#if defined(DART_TELEMETRY)
  telemetry::RuntimeMetrics* const tm = config_.telemetry;
  bool backoff_counted = false;
#endif
  for (;;) {
    if (shard.retired) {
      shed(shard, work);
      return;
    }
    Incarnation& inc = *shard.inc;
    if (inc.dead.load(std::memory_order_acquire)) {
      recover_dead(shard);
      continue;
    }
    if (inc.queue.try_push(std::move(work))) {
      shard.delivered += packets;
#if defined(DART_TELEMETRY)
      if (tm != nullptr) {
        tm->ring_occupancy->at(shard.index)
            .set(static_cast<std::int64_t>(inc.queue.size_approx()));
      }
#endif
      return;
    }
    if (!contended) {
      contended = true;
      ++shard.health.backpressure_events;
    }
    // Hang detection: the heartbeat only matters while we are backpressured
    // — an idle worker's frozen counter just means an empty ring.
    if (config_.hang_detection_ns != 0) {
      const std::uint64_t done =
          inc.packets_done.load(std::memory_order_acquire);
      const std::uint64_t now = now_ns();
      if (!shard.hb_armed || shard.hb_done != done) {
        shard.hb_armed = true;
        shard.hb_done = done;
        shard.hb_since_ns = now;
      } else if (now - shard.hb_since_ns >= config_.hang_detection_ns) {
        recover_hung(shard);
        continue;
      }
    }
    const OverloadDecision decision = governor.next();
    if (decision.action == OverloadAction::kShed) {
#if defined(DART_TELEMETRY)
      if (tm != nullptr) tm->governor_sheds->at(shard.index).inc();
#endif
      shed(shard, work);
      return;
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
}

void ShardedMonitor::requeue(Shard& shard, std::vector<Work>&& carryover) {
  // Redeliver a dead predecessor's unconsumed input to the successor, in
  // FIFO order, ahead of anything the router routes next (recovery runs
  // synchronously on the router thread, so nothing can interleave).
  for (Work& work : carryover) {
    const std::uint64_t packets = work.batch.size();
    for (;;) {
      if (shard.retired) {
        shed(shard, work);
        break;
      }
      Incarnation& inc = *shard.inc;
      if (inc.dead.load(std::memory_order_acquire)) {
        // The successor died before swallowing the backlog; recursion is
        // bounded by the restart budget.
        recover_dead(shard);
        continue;
      }
      if (inc.queue.try_push(std::move(work))) {
        shard.health.replayed_after_restore += packets;
        break;
      }
      std::this_thread::yield();
    }
  }
}

// ---------------------------------------------------------------------------
// Recovery.

void ShardedMonitor::recover_dead(Shard& shard) {
  const std::shared_ptr<Incarnation> dead = shard.inc;
  // Fence before touching anything else (symmetry with the hung path; a
  // dead worker has already stopped committing).
  coordinator_->begin_incarnation(shard.index);
  if (dead->thread.joinable()) dead->thread.join();
  ++shard.health.workers_killed;

  // Unconsumed input: the parked limbo batch precedes the ring content in
  // stream order (it was popped first).
  std::vector<Work> carryover;
  if (!dead->limbo.batch.empty()) carryover.push_back(std::move(dead->limbo));
  for (Work work; dead->queue.try_pop(work);) {
    carryover.push_back(std::move(work));
  }

  if (shard.restarts >= config_.restart_budget) {
    // Not replaced: the worker retires with the stats and samples it
    // exited with, and the shard degrades to the shed path.
    shard.retired = true;
    for (const Work& work : carryover) shed(shard, work);
    return;
  }

  ++shard.restarts;
  ++shard.health.recovered;
  const std::uint64_t frontier =
      dead->base_cursor + dead->packets_done.load(std::memory_order_acquire);
  core::CheckpointImage image;
  core::SnapshotMeta meta;
  const bool has_image = coordinator_->latest(shard.index, &image, &meta);
  const bool restored =
      incarnate(shard, frontier, has_image ? &image : nullptr);
  launch(shard);
  // The loss window is exactly what the dead worker processed beyond the
  // state its successor resumes from. max() keeps repeated crashes from
  // re-counting a window an earlier crash already lost.
  const std::uint64_t floor =
      std::max<std::uint64_t>(restored ? meta.cursor : 0, dead->base_cursor);
  if (frontier > floor) shard.health.lost_to_crash += frontier - floor;
  requeue(shard, std::move(carryover));
}

bool ShardedMonitor::detach(Shard& shard, core::CheckpointImage* image) {
  std::shared_ptr<Incarnation> hung = std::move(shard.inc);
  // Fence FIRST: if the zombie wakes between here and a restart, its commit
  // must already be rejected — otherwise it could overwrite the very image
  // a successor is about to restore.
  coordinator_->begin_incarnation(shard.index);
  ++shard.health.forced_detaches;
  core::SnapshotMeta meta;
  const bool has_image = coordinator_->latest(shard.index, image, &meta) &&
                         !core::read_stats(*image, &shard.salvaged);
  if (!has_image) shard.salvaged = core::DartStats{};
  // The zombie's ring is unsalvageable (it may still pop from it), so
  // everything delivered past the surviving state is abandoned. Windows
  // below this incarnation's base were already counted by earlier crashes.
  const std::uint64_t floor =
      std::max<std::uint64_t>(has_image ? meta.cursor : 0, hung->base_cursor);
  shard.health.abandoned_packets += shard.delivered - floor;
  // Hand the zombie its exit condition for a later wake-up, then abandon
  // it; the keepalive reference keeps its world alive indefinitely.
  hung->input_done.store(true, std::memory_order_release);
  hung->thread.detach();
  shard.detached.push_back(std::move(hung));
  return has_image;
}

void ShardedMonitor::recover_hung(Shard& shard) {
  core::CheckpointImage image;
  const bool has_image = detach(shard, &image);
  if (shard.restarts >= config_.restart_budget) {
    shard.retired = true;  // results fall back to the salvaged image
    return;
  }
  ++shard.restarts;
  ++shard.health.recovered;
  incarnate(shard, shard.delivered, has_image ? &image : nullptr);
  launch(shard);
}

// ---------------------------------------------------------------------------
// Shutdown and results.

void ShardedMonitor::reap(Shard& shard) {
  while (!shard.retired) {
    Incarnation& inc = *shard.inc;
    inc.input_done.store(true, std::memory_order_release);
    if (config_.join_timeout_ns != 0 &&
        !wait_exited(inc.exited,
                     Clock::now() +
                         std::chrono::nanoseconds(config_.join_timeout_ns))) {
      // Wedged past the shutdown budget: detach it, but start no
      // successor — there is no further input to feed one.
      core::CheckpointImage image;
      detach(shard, &image);
      shard.retired = true;
      return;
    }
    inc.thread.join();
    if (!inc.dead.load(std::memory_order_acquire)) return;  // clean exit
    recover_dead(shard);  // replace and drain again, or retire
  }
}

void ShardedMonitor::settle(Shard& shard) {
  coordinator_->seal(shard.index, &shard.samples, &shard.rtt);
  if (shard.inc) {
    // Joined: a clean exit, or a dead worker retired with what it had.
    // Without checkpoints nothing was committed, so both moves are O(1).
    Incarnation& inc = *shard.inc;
    shard.samples.absorb(std::move(inc.samples));
    shard.rtt.absorb(std::move(inc.rtt));
    shard.result = inc.final_stats;
  } else {
    shard.result = shard.salvaged;
  }
  shard.result.runtime = shard.health;
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
    if (!shard->retired) {
      shard->inc->input_done.store(true, std::memory_order_release);
    }
  }
  // Reap only after every worker got its done flag, so workers drain in
  // parallel rather than serially behind the first join.
  for (auto& shard : shards_) reap(*shard);
  for (auto& shard : shards_) settle(*shard);
#if defined(DART_TELEMETRY)
  // Quiesce fold: authoritative counters are written exactly once, from
  // the settled per-shard results. Live per-batch counts include work a
  // detached or rolled-back worker did that the results discard, so they
  // must never feed this tier.
  if (config_.telemetry != nullptr) {
    for (const auto& shard : shards_) {
      config_.telemetry->fold_authoritative(shard->index, shard->routed,
                                            shard->result);
    }
  }
#endif
}

const analytics::SampleLog& ShardedMonitor::shard_samples(
    std::uint32_t shard) const {
  assert(finished_ && "results require finish()");
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
  for (const auto& shard : shards_) total += shard->samples.size();
  std::vector<core::RttSample> merged;
  merged.reserve(total);
  for (const auto& shard : shards_) {
    const auto& samples = shard->samples.samples();
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  deterministic_order(merged);
  return merged;
}

analytics::LogHistogram ShardedMonitor::rtt_histogram() const {
  assert(finished_ && "results require finish()");
  analytics::LogHistogram merged;
  for (const auto& shard : shards_) merged.merge(shard->rtt);
  return merged;
}

bool ShardedMonitor::await_detached(std::uint64_t timeout_ns) const {
  assert(finished_ && "await_detached() requires finish()");
  const auto deadline = Clock::now() + std::chrono::nanoseconds(timeout_ns);
  for (const auto& shard : shards_) {
    for (const auto& zombie : shard->detached) {
      if (!wait_exited(zombie->exited, deadline)) return false;
    }
  }
  return true;
}

void deterministic_order(std::vector<core::RttSample>& samples) {
  std::sort(samples.begin(), samples.end(), core::sample_less);
}

}  // namespace dart::runtime
