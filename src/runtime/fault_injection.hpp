// Deterministic fault injection for the sharded replay runtime.
//
// The chaos suite (tests/runtime/chaos_test.cpp) needs to reproduce, on
// demand and bit-for-bit, the failure modes the paper designs against in
// spirit (Sections 3.1 and 7: the monitor must stay live under whatever the
// network — or here, the host — throws at it):
//
//   stall   — a worker sleeps before each batch in a window, so its ring
//             backs up and the router's OverloadPolicy engages;
//   kill    — a worker exits cleanly after processing exactly N batches,
//             so everything routed past that point must be shed and
//             accounted (the deterministic-shedding scenario);
//   hang    — a worker blocks inside the hook until release_hangs(); the
//             runtime's join timeout must force-detach it, never deadlock;
//   jitter  — seeded random per-batch consumption delays, forcing
//             ring-full backpressure without any shedding.
//
// Hooks are invoked by ShardedMonitor's worker loop at *batch* granularity
// only, and only when ShardedConfig::faults points at a plan. Only tests,
// bench_robustness and dart-fleet's --fault-* flags arm one; with the
// pointer null the worker pays one branch per popped batch, and the
// per-packet path is the same with and without the harness.
//
// Thread-safety: plans must be fully built before workers start. Each
// shard's mutable hook state is touched only by that shard's worker; the
// hang release flag is the only cross-thread channel (mutex + condvar).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/packet.hpp"
#include "common/random.hpp"
#include "common/thread_annotations.hpp"

namespace dart::runtime {

class FaultPlan {
 public:
  enum class Action : std::uint8_t { kContinue, kExit };

  /// `seed` drives the jitter fault's per-shard random delay streams (and
  /// nothing else); two plans with the same seed and the same fault calls
  /// behave identically.
  explicit FaultPlan(std::uint64_t seed = 0) : seed_(seed) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Sleep `delay_ns` before each of batches [first_batch, first_batch +
  /// batches) processed by `shard`.
  FaultPlan& stall(std::uint32_t shard, std::uint64_t first_batch,
                   std::uint64_t batches, std::uint64_t delay_ns);

  /// Worker `shard` exits its loop after processing exactly `after_batches`
  /// batches; without a replacement the runtime sheds whatever it never
  /// consumed. `times` bounds how many workers the fault claims: a
  /// replacement worker counts batches from zero, so times == 1 (the
  /// default) crashes the shard exactly once while a large value re-kills
  /// every successor until the restart budget runs out. With the default
  /// budget of 0 no worker is ever replaced, so `times` is moot there.
  FaultPlan& kill(std::uint32_t shard, std::uint64_t after_batches,
                  std::uint64_t times = 1);

  /// Worker `shard` blocks once it has processed `at_batch` batches, until
  /// release_hangs() is called (or forever, if it never is).
  FaultPlan& hang(std::uint32_t shard, std::uint64_t at_batch);

  /// Seeded uniform delay in [0, max_delay_ns) before every batch of
  /// `shard`.
  FaultPlan& jitter(std::uint32_t shard, std::uint64_t max_delay_ns);

  // -- Exporter-side faults (the process-level fleet chaos surface) --
  //
  // One vantage exporter per plan (a vantage is a whole process, so there
  // is no shard key). All exporter faults act *downstream of sealing*: the
  // exporter builds a correct CRC-sealed frame and the fault mangles its
  // delivery, exactly as a crash or a sick transport would.

  /// The exporter process "crashes" before publishing its
  /// `after_frames`-th frame (0-based): that frame and everything after it
  /// is never delivered.
  FaultPlan& exporter_kill(std::uint64_t after_frames);

  /// Sleep `delay_ns` before each of frames [first_frame, first_frame +
  /// frames) — a lagging vantage for the collector's liveness deadline.
  FaultPlan& exporter_stall(std::uint64_t first_frame, std::uint64_t frames,
                            std::uint64_t delay_ns);

  /// Frame `sequence` is delivered torn: only its first `keep_bytes` bytes
  /// arrive (a crash mid-write on a non-atomic transport).
  FaultPlan& exporter_truncate(std::uint64_t sequence,
                               std::uint64_t keep_bytes);

  /// Frame `sequence` is delivered twice (two publish slots).
  FaultPlan& exporter_duplicate(std::uint64_t sequence);

  /// Frame `sequence` is held back and delivered right after its
  /// successor: the collector sees sequence order ..., s+1, s, ...
  FaultPlan& exporter_reorder(std::uint64_t sequence);

  /// The vantage's epoch clock disagrees with the fleet: every non-manifest
  /// frame's epoch header is rewritten to
  ///   epoch + offset + drift_per_epoch * epoch - lag   (clamped at 0)
  /// *before sealing* — the frame is internally consistent (valid CRC,
  /// telemetry, checkpoint), only its notion of which barrier it describes
  /// is skewed. `offset` models a constant clock offset, `drift_per_epoch`
  /// a clock running fast/slow, `lag` a vantage reporting epochs late.
  FaultPlan& exporter_epoch_skew(std::int64_t offset,
                                 std::int64_t drift_per_epoch = 0,
                                 std::uint64_t lag = 0);

  /// Exporter hook: called before each publish with the number of frames
  /// already published. kExit fires the kill fault; stall delays happen
  /// inside this call.
  Action exporter_before_publish(std::uint64_t frames_published);

  /// Exporter hook: true if frame `sequence` must be truncated, with the
  /// byte count to keep in `*keep_bytes`.
  bool exporter_truncate_bytes(std::uint64_t sequence,
                               std::uint64_t* keep_bytes) const;

  /// Exporter hook: true if frame `sequence` must be delivered twice.
  bool exporter_duplicate_frame(std::uint64_t sequence) const;

  /// Exporter hook: true if frame `sequence` must be held for reordering.
  bool exporter_hold_frame(std::uint64_t sequence) const;

  /// Exporter hook: true if the epoch-skew fault is armed; `*skewed` gets
  /// the rewritten epoch for a frame whose true epoch is `epoch`.
  bool exporter_skewed_epoch(std::uint64_t epoch, std::uint64_t* skewed) const;

  /// Worker hook: called for each popped packet batch, before it is
  /// processed, with the number of batches this worker has fully
  /// processed. kExit means "die now" (kill fault; the runtime parks the
  /// popped batch for a successor); the hang fault blocks inside this call.
  Action before_pop(std::uint32_t shard, std::uint64_t batches_done);

  /// Worker hook: called after a successful pop, before the batch is
  /// processed; applies stall / jitter delays.
  void after_pop(std::uint32_t shard, std::uint64_t batch_index);

  /// Wake every worker blocked in a hang fault (idempotent).
  void release_hangs();

 private:
  struct ShardFaults {
    // Stall window.
    std::uint64_t stall_first = 0;
    std::uint64_t stall_count = 0;
    std::uint64_t stall_delay_ns = 0;
    // Kill point (kuint64max = never), how many kills the fault may fire,
    // and how many it has fired. Incarnations of one shard run serially
    // (a successor starts only after its predecessor exited), so the
    // counter needs no synchronization.
    std::uint64_t kill_after = ~std::uint64_t{0};
    std::uint64_t kill_times = ~std::uint64_t{0};
    std::uint64_t kills_fired = 0;
    // Hang point (kuint64max = never) and whether it already fired.
    std::uint64_t hang_at = ~std::uint64_t{0};
    bool hang_fired = false;
    // Jitter.
    std::uint64_t jitter_max_ns = 0;
    Rng jitter_rng{0};
  };

  /// Exporter-side fault state: one exporter per plan, mutated only while
  /// the plan is built and read only by the (single-threaded) exporter.
  struct ExporterFaults {
    std::uint64_t kill_after = ~std::uint64_t{0};
    std::uint64_t stall_first = 0;
    std::uint64_t stall_count = 0;
    std::uint64_t stall_delay_ns = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> truncate;
    std::vector<std::uint64_t> duplicate;
    std::vector<std::uint64_t> reorder;
    bool has_skew = false;
    std::int64_t skew_offset = 0;
    std::int64_t skew_drift = 0;
    std::uint64_t skew_lag = 0;
  };

  ShardFaults& shard_faults(std::uint32_t shard);

  // con-ok(CON005): written only while the plan is built, before any worker
  // starts; workers treat it as immutable (published by thread creation)
  std::uint64_t seed_;
  // con-ok(CON005): sized at build time; each element is touched only by
  // the one worker owning that shard (hang_fired under hang_mutex_ aside)
  std::vector<ShardFaults> shards_;
  // con-ok(CON005): built before the exporter runs; single-threaded reader
  ExporterFaults exporter_;

  // The hang release flag is the only cross-thread channel in the plan:
  // a blocked zombie and the test thread calling release_hangs() meet here.
  // condition_variable_any waits on the annotated UniqueLock directly.
  common::Mutex hang_mutex_;
  std::condition_variable_any hang_cv_;
  bool hangs_released_ DART_GUARDED_BY(hang_mutex_) = false;
};

/// Input-side fault (the "non-monotonic / skewed timestamps" scenario):
/// deterministically perturb each packet's timestamp by a uniform offset in
/// [-max_skew_ns, +max_skew_ns] (clamped at zero), seeded — the result is
/// generally *not* time-ordered, which is exactly the point: a monitor fed
/// by a damaged capture or a misbehaving clock must degrade, not misbehave.
void inject_timestamp_skew(std::vector<PacketRecord>& packets,
                           std::uint64_t seed, std::uint64_t max_skew_ns);

}  // namespace dart::runtime
