#include "runtime/sharded_monitor.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "core/config_check.hpp"
#include "runtime/fault_injection.hpp"
#include "telemetry/runtime_metrics.hpp"

namespace dart::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since `start`; since the clock's epoch by default.
std::uint64_t ns_since(Clock::time_point start = {}) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

/// The deadline `ns` from now; 0 never comes.
Clock::time_point deadline_in(std::uint64_t ns) {
  return ns == 0 ? Clock::time_point::max()
                 : Clock::now() + std::chrono::nanoseconds(ns);
}

}  // namespace

ShardedMonitor::ShardedMonitor(const ShardedConfig& config,
                               MonitorFactory factory)
    : config_(config),
      factory_(std::move(factory)),
      router_(config.shards == 0 ? 1 : config.shards, config.route_seed),
      coordinator_(std::make_shared<CheckpointCoordinator>(router_.shards())) {
  config_.shards = router_.shards();
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.queue_batches == 0) config_.queue_batches = 1;
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(i, config_.overload);
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
  inc->faults = config_.faults;
  inc->metrics = config_.telemetry;
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
  shard.stall.end_episode();
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
  const auto commit_start =
      inc.metrics != nullptr ? Clock::now() : Clock::time_point{};
  // Fenced: a zombie's commit is rejected and its samples discarded — they
  // belong to a window already written off.
  const bool accepted =
      inc.coordinator->commit(inc.shard, inc.id, std::move(image), meta,
                              std::move(inc.samples), std::move(inc.rtt));
  inc.samples.clear();
  inc.rtt = analytics::LogHistogram{};
  if (accepted) {
    inc.committed_epoch.store(marker.epoch, std::memory_order_release);
    inc.room.notify();  // a router in await_epoch waits for this
  }
  if (inc.metrics != nullptr) {
    inc.metrics->commit_latency->at(0).observe(ns_since(commit_start));
    (accepted ? inc.metrics->checkpoint_commits
              : inc.metrics->checkpoint_rejected)
        ->at(inc.shard)
        .inc();
  }
}

void ShardedMonitor::worker_loop(Incarnation& inc) {
  Work work;
  bool done_seen = false;
  const std::size_t half = inc.queue.capacity() / 2;
  const auto ready = [&inc] {
    return inc.queue.size_approx() != 0 ||
           inc.input_done.load(std::memory_order_acquire);
  };
  for (;;) {
    if (inc.queue.try_pop(work)) {
      // Hysteresis: a router parked on the full ring is woken once half of
      // it is free, so it refills in one run instead of a wake per pop.
      if (inc.queue.size_approx() <= half) inc.room.notify();
      if (work.epoch != 0) {
        commit_barrier(inc, work);
        continue;
      }
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
      const auto batch_start =
          inc.metrics != nullptr ? Clock::now() : Clock::time_point{};
      inc.monitor->process_batch(work.batch);
      inc.packets_done.fetch_add(work.batch.size(),
                                 std::memory_order_release);
      if (inc.metrics != nullptr) {
        inc.metrics->batch_latency->at(inc.shard).observe(
            ns_since(batch_start));
        inc.metrics->batch_fill->at(inc.shard).observe(
            static_cast<Timestamp>(work.batch.size()));
        inc.metrics->worker_batches->at(inc.shard).inc();
        inc.metrics->worker_packets->at(inc.shard).inc(work.batch.size());
      }
      ++inc.batches_done;
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
    inc.waiting.store(true, std::memory_order_release);
    inc.work_ready.wait_until(ready, kWorkerSpin,
                              Parker::Clock::time_point::max());
    inc.waiting.store(false, std::memory_order_release);
  }
  inc.final_stats = inc.monitor->stats();
  inc.exited.store(true, std::memory_order_release);
  // A router parked on the ring or on this exit learns of it now; the
  // keepalive reference keeps the parker alive through the call.
  inc.room.notify();
}

// ---------------------------------------------------------------------------
// Router side: delivery, barriers, health watching.

void ShardedMonitor::process(const PacketRecord& packet) {
  route(std::span(&packet, 1));
}

void ShardedMonitor::process_all(std::span<const PacketRecord> packets) {
  route(packets);
  // The call is the delivery unit: a packet waits in a pending batch only
  // while the call that routed it runs, so a trickling source is not held
  // back until batch_size packets pile up. A retired shard keeps batching:
  // its batches are shed, and each shed batch is one RuntimeHealth event.
  for (auto& shard : shards_) {
    if (!shard->retired) flush_shard(*shard);
  }
}

void ShardedMonitor::route(std::span<const PacketRecord> packets) {
  if (finished_) {
    throw LifecycleError(LifecycleViolation::kProcessAfterFinish);
  }
  // Images exist only to restore a replacement worker, so markers flow
  // exactly when one may be started.
  const bool markers = config_.restart_budget != 0;
  const std::uint64_t interval =
      config_.on_epoch || markers ? config_.epoch_interval_packets : 0;
  while (!packets.empty()) {
    // One segment runs up to the next epoch boundary or the end of the
    // span, so the clock costs one division per segment, not per packet.
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
    if (!closes) continue;
    ++epochs_fired_;
    if (markers) {
      // Epoch barrier: everything routed so far goes in front of each
      // shard's marker, so together the markers cut one global stream
      // position and each cursor is its shard's share of it.
      for (auto& shard : shards_) {
        if (shard->retired) continue;
        flush_shard(*shard);
        Work marker;
        marker.epoch = epochs_fired_;
        marker.cursor = shard->delivered;
        deliver(*shard, marker);
      }
    }
    // Router-thread barrier: fires between packets, so the callback can
    // publish fleet progress without racing the routing state.
    if (config_.on_epoch) config_.on_epoch(epochs_fired_, routed_total_);
  }
}

void ShardedMonitor::route_segment(std::span<const PacketRecord> packets) {
  const std::size_t routed = packets.size();
  if (shards_.size() == 1) {
    // Every packet goes to shard 0 and barriers fall only between
    // segments: append whole runs, flushing at the packets the per-packet
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
  shard.routed += shard.pending.size();
  Work work;
  work.batch.swap(shard.pending);
  deliver(shard, work);
  // Pushed, `work` holds the buffer the worker left in the slot (emptied,
  // capacity kept); shed, it still holds the batch. Either way it becomes
  // the next pending batch, so once every slot has cycled a flush
  // allocates nothing.
  shard.pending.swap(work.batch);
  shard.pending.clear();
  shard.pending.reserve(config_.batch_size);
}

void ShardedMonitor::shed(Shard& shard, const Work& work) {
  if (work.epoch != 0) return;  // a skipped barrier sheds no coverage
  ++shard.health.shed_batches;
  shard.health.shed_packets += work.batch.size();
}

void ShardedMonitor::deliver(Shard& shard, Work& work) {
  const std::uint64_t packets = work.batch.size();
  bool contended = false;
  telemetry::RuntimeMetrics* const tm = config_.telemetry;
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
    if (inc.queue.try_push(work)) {
      inc.work_ready.notify();
      shard.delivered += packets;
      shard.stall.end_episode();
      if (tm != nullptr) {
        tm->ring_occupancy->at(shard.index)
            .set(static_cast<std::int64_t>(inc.queue.size_approx()));
      }
      return;
    }
    if (!contended) {
      contended = true;
      ++shard.health.backpressure_events;
      shard.stall.next_batch();
    }
    // Hang detection: the heartbeat only matters while we are backpressured
    // — an idle worker's frozen counter just means an empty ring. A worker
    // still in its wait has been woken by the pushes that filled the ring
    // but not yet run: the clock starts once it has.
    if (config_.hang_detection_ns != 0 &&
        shard.stall.hung(inc.packets_done.load(std::memory_order_acquire),
                         inc.waiting.load(std::memory_order_acquire),
                         ns_since(), config_.hang_detection_ns)) {
      recover_hung(shard);
      continue;
    }
    const OverloadDecision decision = shard.stall.next();
    if (decision.action == OverloadAction::kShed) {
      if (tm != nullptr) tm->governor_sheds->at(shard.index).inc();
      shed(shard, work);
      return;
    }
    if (decision.action == OverloadAction::kSleep) {
      ++shard.health.backoff_sleeps;
      if (tm != nullptr) {
        tm->backpressure_sleeps->at(shard.index).inc();
        // The episode's first sleep is its one transition into backoff.
        if (shard.stall.waited_ns() == decision.sleep_ns) {
          tm->governor_backoffs->at(shard.index).inc();
        }
      }
      // The governor's sleep, as a park that ends at its deadline, or
      // earlier if the worker frees half the ring first (rare at capacity,
      // DESIGN.md §6); the deadline keeps the shed clock unchanged.
      await_room(inc,
                 Clock::now() + std::chrono::nanoseconds(decision.sleep_ns));
    } else {
      Parker::relax();
    }
  }
}

void ShardedMonitor::await_room(Incarnation& inc,
                                Parker::Clock::time_point deadline) {
  const std::size_t half = inc.queue.capacity() / 2;
  inc.room.wait_until(
      [&inc, half] {
        return inc.queue.size_approx() <= half ||
               inc.exited.load(std::memory_order_acquire);
      },
      Parker::Clock::duration::zero(), deadline);
}

bool ShardedMonitor::await_exit(Incarnation& inc,
                                Parker::Clock::time_point deadline) {
  // wait_until's final test sides with a worker that exits right at the
  // deadline: without it, a worker that finishes its last batch as the
  // deadline fires would be detached and its merged results discarded.
  return inc.room.wait_until(
      [&inc] { return inc.exited.load(std::memory_order_acquire); },
      Parker::Clock::duration::zero(), deadline);
}

void ShardedMonitor::end_input(Incarnation& inc) {
  inc.input_done.store(true, std::memory_order_release);
  inc.work_ready.notify();
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
      if (inc.queue.try_push(work)) {
        inc.work_ready.notify();
        shard.health.replayed_after_restore += packets;
        break;
      }
      // No deadline: a requeue never sheds. The successor drains its ring
      // or dies, and either wakes the router.
      await_room(inc, Parker::Clock::time_point::max());
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
  end_input(*hung);
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
    end_input(inc);
    if (!await_exit(inc, deadline_in(config_.join_timeout_ns))) {
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
    if (!shard->retired) end_input(*shard->inc);
  }
  // Reap only after every worker got its done flag, so workers drain in
  // parallel rather than serially behind the first join.
  for (auto& shard : shards_) reap(*shard);
  for (auto& shard : shards_) settle(*shard);
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

bool ShardedMonitor::await_epoch(std::uint64_t epoch, EpochCut* cut) {
  if (config_.restart_budget == 0) return false;  // no markers, no cuts
  const auto deadline = deadline_in(config_.join_timeout_ns);
  *cut = EpochCut{};
  for (auto& shard : shards_) {
    // Nothing is routed while the router waits, so no later cut can
    // replace the awaited one.
    core::SnapshotMeta meta;
    while (!shard->retired &&
           (!coordinator_->latest(shard->index, nullptr, &meta) ||
            meta.epoch < epoch)) {
      Incarnation& inc = *shard->inc;
      const auto ready = [&inc, epoch] {
        return inc.committed_epoch.load(std::memory_order_acquire) >= epoch ||
               inc.dead.load(std::memory_order_acquire);
      };
      if (!inc.room.wait_until(ready, {}, deadline)) return false;
      // A dead worker's successor replays the marker.
      if (inc.dead.load(std::memory_order_acquire)) recover_dead(*shard);
    }
    if (meta.epoch > epoch) return false;  // routed past the awaited cut
    core::CheckpointImage image;
    core::DartStats stats;
    if (!coordinator_->latest(shard->index, &image, nullptr) ||
        core::read_stats(image, &stats)) {
      stats = core::DartStats{};  // no readable image: zeros, as detach()
    }
    stats.runtime = shard->health;
    cut->stats.push_back(stats);
    cut->cursors.push_back(shard_routed_cursor(shard->index));
    cut->rtt.merge(coordinator_->committed_rtt(shard->index));
  }
  return true;
}

bool ShardedMonitor::await_detached(std::uint64_t timeout_ns) const {
  assert(finished_ && "await_detached() requires finish()");
  const auto deadline = Clock::now() + std::chrono::nanoseconds(timeout_ns);
  for (const auto& shard : shards_) {
    for (const auto& zombie : shard->detached) {
      if (!await_exit(*zombie, deadline)) return false;
    }
  }
  return true;
}

void deterministic_order(std::vector<core::RttSample>& samples) {
  std::sort(samples.begin(), samples.end(), core::sample_less);
}

}  // namespace dart::runtime
