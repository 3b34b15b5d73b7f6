// ShardedMonitor: flow-affinity parallel replay across N worker threads,
// with crash recovery as a policy.
//
//                      +-> [ring] -> worker 0: DartMonitor -> log 0 + hist 0
//   packets -> router -+-> [ring] -> worker 1: DartMonitor -> log 1 + hist 1
//     (barriers)       +-> [ring] -> worker 2: DartMonitor -> log 2 + hist 2
//                                      |  cut at each epoch barrier
//                                      v
//                              CheckpointCoordinator (restore on crash)
//
// The caller's thread routes each packet by the canonical 4-tuple hash onto
// one of N shards; each shard is a worker thread owning a private monitor
// (no shared mutable state between shards). Handoff is batched through
// bounded SPSC rings: each process_all() call hands every shard its share
// of the call before returning, cut into batches of at most batch_size, so
// batches fill under load and shrink to what arrived when the source
// trickles. A push exchanges the batch for the buffer the worker emptied
// into that slot, so a warmed-up ring hands off without allocating. A full
// ring backpressures the router, bounding memory at O(shards * queue depth
// * batch). Neither side waits on the other without bound: a worker with
// an empty ring spins up to kWorkerSpin and a router with a full one for
// its OverloadPolicy's spin budget, then each parks (parker.hpp) until the
// other side's push or pop wakes it, so an idle shard costs no CPU.
//
// Each worker's sample sink bins the RTT into its LogHistogram ("hist"),
// so the RTT distribution is aggregated as it is measured:
// `rtt_histogram()` merges the N shard histograms bin by bin at drain, with
// no per-sample work left to do. With `ShardedConfig::keep_samples` on (the
// default) the sink also appends every raw sample to the shard's SampleLog
// ("log"), which grows by 40 bytes a sample for as long as the run lasts.
// Off, a shard holds its monitor, its ring and its histogram, nothing that
// grows with the sample count; `dartd` and `dart-fleet` run that way. The
// default stays on because the benchmark's mirror, the differential tests
// and `examples/parallel_replay` still read `merged_samples()`; it flips
// once the mirror renders from `rtt_histogram()` too.
//
// Determinism: both directions of a connection hash to the same shard and
// the single router preserves arrival order into each FIFO ring, so every
// flow sees exactly the packet subsequence — in exactly the order — it
// would see in a single-monitor run. With per-flow monitor state (unbounded
// tables), the merged sample stream is therefore bit-identical *as a
// multiset* to the single-monitor reference, and merged DartStats equal the
// reference counters; `merged_samples()` returns the canonical sorted order
// so equal multisets compare equal as vectors. A LogHistogram is
// order-independent, so the merged histogram equals one filled from
// `merged_samples()` in any regime. Bounded tables shared by many flows
// break the single-monitor equivalence by design (shards see different
// collision patterns); the differential tests pin down both regimes.
//
// Graceful degradation: backpressure is *bounded*. When a shard's ring
// stays full past the OverloadPolicy's deadline (spin -> exponential
// backoff -> shed), the router drops that batch and accounts it in the
// shard's RuntimeHealth instead of freezing the whole pipeline behind one
// sick worker. The shard's stall record keeps the episode across batches
// until a push lands, so a wedged worker costs the router one deadline,
// not one per batch. The invariant, per shard and merged, is
//
//     processed + shed + abandoned + lost_to_crash == routed
//
// Recovery is set by two ShardedConfig fields, both off by default:
//
//   * `restart_budget`: how many times a shard's dead or hung worker is
//     replaced by a fresh incarnation. When it is nonzero, every
//     `epoch_interval_packets` boundary is also an epoch barrier: the
//     router flushes every shard and injects a marker into each ring. A
//     marker is an in-band quiesce point: the worker that pops it cuts a
//     CheckpointImage and commits it, with the histogram (and, if kept,
//     the samples) it emitted since the last commit, to the coordinator.
//     All shards' epoch-k images sit at one global stream position, so
//     together they are a consistent cut.
//   * `hang_detection_ns`: a worker whose heartbeat stays frozen this long
//     while the router is backpressured on its full ring is declared hung.
//
// Accounting under faults (DESIGN.md §8–§9):
//
//   * A dead worker that gets replaced: the successor restores the last
//     committed image; what the dead worker processed after it is
//     `lost_to_crash`, and its unconsumed backlog is requeued to the
//     successor (`replayed_after_restore`).
//   * A dead worker that is not replaced (budget 0 or used up): it retires
//     with the stats and samples it exited with; its backlog and everything
//     routed to the shard afterwards is shed.
//   * A hung worker (detected live, or still wedged when `join_timeout_ns`
//     expires in finish()): it is detached, and everything delivered to it
//     past the last committed image's cursor is `abandoned`. A replacement
//     restores that image; a shard left without one reports the image's
//     stats and samples, or zeros if it has none.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "analytics/histogram.hpp"
#include "analytics/sample_log.hpp"
#include "common/packet.hpp"
#include "common/thread_annotations.hpp"
#include "core/config.hpp"
#include "core/rtt_sample.hpp"
#include "core/stats.hpp"
#include "runtime/checkpoint_coordinator.hpp"
#include "runtime/lifecycle.hpp"
#include "runtime/overload_policy.hpp"
#include "runtime/parker.hpp"
#include "runtime/replay_monitor.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/spsc_ring.hpp"

namespace dart::telemetry {
struct RuntimeMetrics;
}  // namespace dart::telemetry

namespace dart::runtime {

class FaultPlan;

/// How long a worker spins on an empty ring before it parks. A stream whose
/// batches come less than this apart keeps its worker spinning; a shard
/// idle for longer gives its core back. Parking between the batches of a
/// live stream does not pay on a shared VM: on a 4-vCPU Xeon VM at
/// `paced_campus`'s 0.67 Mpps, workers that parked after ~6 µs cut process
/// CPU from ~3,100 to ~440 ns/pkt, but each wake-up cost the router ~3 µs
/// of syscall and the packets ~25 µs of host scheduling, so the median
/// sample latency and the work CPU both rose ~20 % (CHANGES.md).
inline constexpr std::chrono::milliseconds kWorkerSpin{1};

/// Most shards the command-line tools accept for --shards. Every shard is
/// a worker thread, so a mistyped count is refused rather than started.
inline constexpr std::uint32_t kMaxShards = 1024;

struct ShardedConfig {
  /// Number of worker threads / monitor partitions (>= 1).
  std::uint32_t shards = 1;

  /// Most packets per ring batch. A shard's batch is handed off when it
  /// reaches this size, at an epoch barrier, and at the end of every
  /// process_all() call, so under load one push amortizes the ring
  /// synchronization over this many packets.
  std::size_t batch_size = 256;

  /// Bounded ring capacity per shard, in batches. A full ring stalls the
  /// router (backpressure) rather than growing without bound. The router
  /// parks on a full ring until the governor's sleep times out or the
  /// worker has freed half the ring. At capacity the timeout ends nearly
  /// every park (a "2 µs" timed wait lasts ~60 µs, a few batches of
  /// worker time), and that timed refill is what keeps the ring full
  /// (DESIGN.md §6). Every batch beyond what covers one park is backlog
  /// each packet waits behind and finish() must drain.
  std::size_t queue_batches = 16;

  /// Routing hash seed; independent of the monitors' table hash seeds.
  std::uint64_t route_seed = 0xDA27'0002;

  /// How hard the router waits on a full ring before shedding the batch.
  OverloadPolicy overload;

  /// The one epoch clock: every `epoch_interval_packets` routed packets
  /// (0 = no epochs) closes an epoch, counted from 1.
  ///
  /// With a nonzero restart_budget, each boundary flushes every live shard
  /// and delivers it a checkpoint marker `{epoch, cursor = packets
  /// delivered to the shard}`, so every shard's epoch-k image cuts the
  /// same global stream position. With budget 0 no images are cut: none
  /// could ever be restored.
  ///
  /// `on_epoch(epoch, routed)`, when set, then fires on the *router
  /// thread* (`routed` is the total routed so far, i.e. epoch * interval).
  /// The callback runs between process() calls, so it may inspect
  /// router-side state, but the workers have not necessarily consumed up
  /// to the cursor yet — it is a routing barrier, not a quiesce point
  /// (await_epoch() is the quiesce point). Keep the callback cheap; it
  /// stalls routing.
  std::uint64_t epoch_interval_packets = 0;
  std::function<void(std::uint64_t epoch, std::uint64_t routed)> on_epoch;

  /// Keep every raw RttSample in the shard's SampleLog, for
  /// `shard_samples()` and `merged_samples()`. Off, the workers only bin
  /// RTTs into their histograms: both sample accessors return empty logs,
  /// and `rtt_histogram()` and the stats are unchanged. On by default
  /// while the benchmark's mirror still reads `merged_samples()`.
  bool keep_samples = true;

  /// How long finish() waits for a worker to exit before force-detaching
  /// it (diagnosed in RuntimeHealth::forced_detaches). After end-of-input a
  /// healthy worker only has the ring's backlog left, so this bounds
  /// shutdown: it fires only for a genuinely wedged worker. 0 waits
  /// forever.
  std::uint64_t join_timeout_ns = 30'000'000'000ULL;  // 30 s

  /// Replacements each shard may consume for dead or hung workers. 0 (the
  /// default) never replaces one: the shard degrades to the shed path.
  /// Nonzero also cuts a checkpoint at every epoch boundary; with
  /// epoch_interval_packets 0 none is cut, so a replacement starts from
  /// empty state and the dead worker's whole window counts as lost.
  std::uint32_t restart_budget = 0;

  /// A worker whose heartbeat makes no progress for this long while the
  /// router is backpressured on its full ring, and which is not still
  /// waking from a park, is declared hung and force-detached. 0 (the
  /// default) disables live hang detection; a hang then surfaces at
  /// finish() via join_timeout_ns.
  std::uint64_t hang_detection_ns = 0;

  /// Fault-injection hooks for the chaos suites; must outlive every worker.
  /// Hooks apply to packet batches only — barrier markers commit even at a
  /// kill point, which is what makes a kill at a barrier lossless. nullptr
  /// (every deployed caller) costs the worker one branch per popped batch.
  FaultPlan* faults = nullptr;

  /// Standard metric families to instrument; must outlive every worker.
  /// nullptr runs uninstrumented: each site is one pointer test, and the
  /// worker's sites run once per popped batch.
  telemetry::RuntimeMetrics* telemetry = nullptr;
};

class ShardedMonitor {
 public:
  /// Workers are started immediately; `factory` is invoked once per shard
  /// on the constructing thread, and again (on the router thread) for each
  /// replacement worker.
  ShardedMonitor(const ShardedConfig& config, MonitorFactory factory);

  /// Convenience: every shard runs a private DartMonitor with this config
  /// (checkpoint support included).
  ShardedMonitor(const ShardedConfig& config,
                 const core::DartConfig& dart_config);

  /// Joins the workers (shutdown) if the caller has not already finished.
  ~ShardedMonitor();

  ShardedMonitor(const ShardedMonitor&) = delete;
  ShardedMonitor& operator=(const ShardedMonitor&) = delete;

  /// Route one packet to its shard. Caller thread only; packets must arrive
  /// in monitor order (as for DartMonitor::process). The packet waits in
  /// its shard's pending batch until the batch fills, an epoch barrier
  /// cuts it, or a process_all() or finish() call hands it off. Throws
  /// LifecycleError (kProcessAfterFinish) once finish() has run — the
  /// workers have joined and a routed batch would land in a ring with no
  /// consumer.
  void process(const PacketRecord& packet);

  /// Route a whole time-ordered stream, then hand every live shard's
  /// partial batch to its ring, so each packet of the call reaches its
  /// worker before the call returns. Routing equals process() on each
  /// packet in turn (same hook firings, cursors, barrier cuts and results);
  /// only the batches differ: each shard's share of one call is cut at
  /// batch_size and at barriers and never carried into the next call. It
  /// finds the next epoch boundary once per segment, and with one shard
  /// appends each segment to the batch in bulk. Same lifecycle contract as
  /// process().
  void process_all(std::span<const PacketRecord> packets);

  /// Flush partial batches, signal end-of-stream, and join all workers
  /// (bounded by join_timeout_ns per worker; a worker that dies while
  /// draining is still replaced, budget permitting). Results are available
  /// afterwards. A second explicit call throws LifecycleError
  /// (kFinishAfterFinish): the batch-era "idempotent finish" contract hid
  /// daemon restart bugs where two owners both believed they ended the
  /// cycle. Destruction after finish() remains legal (the destructor uses
  /// the noexcept shutdown path, never this method).
  void finish();

  /// True once finish() has settled results (queries allowed, ingest not).
  bool finished() const { return finished_; }

  std::uint32_t shards() const { return router_.shards(); }
  const ShardedConfig& config() const { return config_; }

  /// Router-side epoch clock: packets routed so far. Router thread only
  /// while running (it is the writer); any thread after finish().
  std::uint64_t routed_total() const { return routed_total_; }

  /// Router-side per-shard cursor: packets routed to `shard` so far,
  /// including any pending partial batch not yet handed to the ring. The
  /// cursors sum to routed_total(); an epoch cut reports them. Same
  /// threading contract as routed_total().
  std::uint64_t shard_routed_cursor(std::uint32_t shard) const;

  /// Per-shard results; valid only after finish(). A shard whose worker
  /// was detached and not replaced reports its last committed image's
  /// stats and samples (empty without checkpoints) plus the RuntimeHealth
  /// accounting. The log is empty, and never allocated, with keep_samples
  /// off.
  const analytics::SampleLog& shard_samples(std::uint32_t shard) const;
  core::DartStats shard_stats(std::uint32_t shard) const;

  /// Sum of all per-shard counters (including RuntimeHealth); valid only
  /// after finish().
  core::DartStats merged_stats() const;

  /// Merged degradation accounting alone; valid only after finish().
  core::RuntimeHealth health() const;

  /// All shards' samples in the canonical `sample_less` order — the
  /// deterministic merge, for tests and CSV export; aggregates read
  /// rtt_histogram() instead. Copies and sorts every sample; empty with
  /// keep_samples off. Valid only after finish().
  std::vector<core::RttSample> merged_samples() const;

  /// The RTT distribution of every sample in the results, binned by the
  /// workers as they emitted it and merged across shards (exact: every
  /// histogram has the default layout). Equal to a LogHistogram filled from
  /// merged_samples(), without copying or sorting a sample, and the same
  /// whether keep_samples is on or off. Valid only after finish().
  analytics::LogHistogram rtt_histogram() const;

  /// Committed checkpoint images cut across the run.
  std::uint64_t checkpoints_cut() const {
    return coordinator_->total_checkpoints_cut();
  }

  const CheckpointCoordinator& coordinator() const { return *coordinator_; }

  /// One epoch's global cut: per shard, its epoch image's counters (with
  /// the router's RuntimeHealth) and its routed cursor; and the histogram
  /// of every sample committed up to the cut, merged across shards.
  struct EpochCut {
    std::vector<core::DartStats> stats;
    std::vector<std::uint64_t> cursors;
    analytics::LogHistogram rtt;
  };

  /// Router thread, once process_all() has routed exactly through epoch
  /// `epoch`'s boundary: wait until every non-retired shard has committed
  /// its epoch cut (recovering a worker found dead), then fill `cut`; a
  /// retired shard gives its last cut. False at once with restart_budget 0
  /// (no markers flow), or at join_timeout_ns (0: never) — always, for a
  /// monitor without checkpoint support.
  bool await_epoch(std::uint64_t epoch, EpochCut* cut);

  /// Wait up to `timeout_ns` for any force-detached workers to finally
  /// exit (e.g. after a fault plan released a hang). Returns true when
  /// none remain running. Valid only after finish().
  bool await_detached(std::uint64_t timeout_ns) const;

 private:
  using PacketBatch = std::vector<PacketRecord>;

  /// One ring entry: a packet batch, or (epoch != 0) a barrier marker.
  struct Work {
    PacketBatch batch;
    std::uint64_t epoch = 0;
    std::uint64_t cursor = 0;  ///< shard packets delivered before a marker
  };

  // One worker lifetime. Each replacement builds a fresh Incarnation — ring
  // included, because a hung predecessor may still pop from its own ring.
  // The worker holds a shared_ptr to it (and to the coordinator), so a
  // force-detached worker that wakes up later, even after this monitor is
  // destroyed, only ever touches live memory.
  //
  // Lock-free protocol, in DART_PUBLISHED_BY terms: the router publishes
  // the monitor to the worker via thread creation; the worker publishes its
  // samples/rtt/final_stats/limbo back with its exited release-store, which
  // the router acquires via join (or an exited load). The atomics and the
  // two parkers are the only fields both sides touch while the worker runs.
  struct Incarnation {
    explicit Incarnation(std::size_t queue_batches) : queue(queue_batches) {}

    SpscRing<Work> queue;
    std::unique_ptr<ReplayMonitor> monitor DART_PUBLISHED_BY(exited);
    /// Samples (if kept) and histogram emitted since the last barrier
    /// commit.
    analytics::SampleLog samples DART_PUBLISHED_BY(exited);
    analytics::LogHistogram rtt DART_PUBLISHED_BY(exited);
    core::DartStats final_stats DART_PUBLISHED_BY(exited);
    /// The popped-unprocessed batch parked at a kill.
    Work limbo DART_PUBLISHED_BY(exited);
    std::thread thread;
    std::uint32_t shard = 0;
    std::uint64_t id = 0;           ///< coordinator incarnation id
    std::uint64_t base_cursor = 0;  ///< shard-stream position at start
    std::shared_ptr<CheckpointCoordinator> coordinator;

    /// Heartbeat: shard-stream packets processed by *this* incarnation.
    /// base_cursor + packets_done is the incarnation's absolute frontier.
    std::atomic<std::uint64_t> packets_done{0};
    /// Epoch of this incarnation's last accepted barrier commit.
    std::atomic<std::uint64_t> committed_epoch{0};
    std::atomic<bool> input_done{false};
    std::atomic<bool> dead{false};    ///< exited early (kill fault)
    std::atomic<bool> exited{false};  ///< worker loop finished (all paths)
    /// The worker is in its empty-ring wait: hang detection does not count
    /// the time it takes a parked worker to be scheduled again.
    std::atomic<bool> waiting{false};
    /// The worker parks here on an empty ring; the router notifies it
    /// after every push and whenever it sets input_done.
    alignas(kCacheLine) Parker work_ready;
    /// The router parks here on a full ring, on an epoch commit and while
    /// waiting for the worker to exit; the worker notifies it when a pop
    /// leaves the ring at most half full, after an accepted commit, and
    /// when it exits.
    alignas(kCacheLine) Parker room;
    FaultPlan* faults = nullptr;     ///< worker-read, may be null
    std::uint64_t batches_done = 0;  ///< hook clock, incarnation-local
    telemetry::RuntimeMetrics* metrics = nullptr;  ///< worker-read, may be null
  };

  // Router-side state; the router thread is its only writer.
  struct Shard {
    Shard(std::uint32_t i, const OverloadPolicy& p) : index(i), stall(p) {}

    std::uint32_t index = 0;
    /// Current (or retired) worker; null once a hung one was detached and
    /// not replaced.
    std::shared_ptr<Incarnation> inc;
    std::vector<std::shared_ptr<Incarnation>> detached;  ///< hung zombies
    PacketBatch pending;          ///< router-side accumulation (recycled)
    std::uint64_t routed = 0;     ///< handed to flush (incl. later shed)
    std::uint64_t delivered = 0;  ///< pushed into the pipeline
    std::uint32_t restarts = 0;
    bool retired = false;         ///< no worker left: route to shed
    core::DartStats salvaged;     ///< last image's stats, for a lost worker
    core::RuntimeHealth health;   ///< router-side accounting
    /// The current full-ring episode's ladder and hang clock; a landed
    /// push or a new incarnation ends it.
    OverloadGovernor stall;
    // Settled by finish().
    core::DartStats result;
    analytics::SampleLog samples;
    analytics::LogHistogram rtt;
  };

  /// Install a fresh incarnation (claiming coordinator ownership) without
  /// starting its worker; returns whether `image` was restored into its
  /// monitor.
  bool incarnate(Shard& shard, std::uint64_t base_cursor,
                 const core::CheckpointImage* image);
  void launch(Shard& shard);
  // The whole finish() sequence minus the lifecycle check, safe from the
  // destructor: flush, end-of-input, reap, settle results, fold telemetry.
  // Idempotent.
  void shutdown() noexcept;
  /// Route packets onto the pending batches, cutting them at batch_size
  /// and at epoch barriers; process() and process_all() share it.
  void route(std::span<const PacketRecord> packets);
  /// Route packets that close no epoch before their last one.
  void route_segment(std::span<const PacketRecord> packets);
  /// Hand the pending batch to the ring and take back, as the next pending
  /// batch, the buffer the push exchanged for it.
  void flush_shard(Shard& shard);
  /// Push `work` (or shed it); once pushed, `work` holds what the slot
  /// held before.
  void deliver(Shard& shard, Work& work);
  void requeue(Shard& shard, std::vector<Work>&& carryover);
  /// Park the router on `inc`'s full ring until a pop leaves it at most
  /// half full, the worker exits, or `deadline` passes.
  static void await_room(Incarnation& inc, Parker::Clock::time_point deadline);
  /// Wait for `inc`'s worker to exit until `deadline` (max(): forever);
  /// true once it has.
  static bool await_exit(Incarnation& inc, Parker::Clock::time_point deadline);
  /// Set `inc`'s end-of-input flag and wake its worker if it is parked.
  static void end_input(Incarnation& inc);
  static void shed(Shard& shard, const Work& work);
  void recover_dead(Shard& shard);
  void recover_hung(Shard& shard);
  bool detach(Shard& shard, core::CheckpointImage* image);
  void reap(Shard& shard);
  void settle(Shard& shard);
  static void worker_loop(Incarnation& inc);
  static void commit_barrier(Incarnation& inc, const Work& marker);

  ShardedConfig config_;
  MonitorFactory factory_;
  ShardRouter router_;
  std::shared_ptr<CheckpointCoordinator> coordinator_;
  std::uint64_t routed_total_ = 0;  ///< router-side packets, epoch clock
  std::uint64_t epochs_fired_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool finished_ = false;
};

/// Canonicalize a sample stream into the `sample_less` total order, in
/// place. Applying this to a single-monitor run and comparing against
/// `merged_samples()` is the multiset-equality test.
void deterministic_order(std::vector<core::RttSample>& samples);

}  // namespace dart::runtime
