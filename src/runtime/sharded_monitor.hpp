// ShardedMonitor: flow-affinity parallel replay across N worker threads,
// with crash recovery as a policy.
//
//                      +-> [ring] -> worker 0: DartMonitor -> log 0 + hist 0
//   packets -> router -+-> [ring] -> worker 1: DartMonitor -> log 1 + hist 1
//     (barriers)       +-> [ring] -> worker 2: DartMonitor -> log 2 + hist 2
//                                      |  cut at each barrier
//                                      v
//                              CheckpointCoordinator (restore on crash)
//
// The caller's thread routes each packet by the canonical 4-tuple hash onto
// one of N shards; each shard is a worker thread owning a private monitor
// (no shared mutable state between shards). Handoff is batched (~256
// packets per push) through bounded SPSC rings; a full ring backpressures
// the router, bounding memory at O(shards * queue depth * batch).
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
// sick worker. The invariant, per shard and merged, is
//
//     processed + shed + abandoned + lost_to_crash == routed
//
// Recovery is set by three ShardedConfig fields, all off by default:
//
//   * `checkpoint`: the router injects epoch barrier markers into each
//     shard's ring. A marker is an in-band quiesce point: the worker that
//     pops it cuts a CheckpointImage and commits it, with the histogram
//     (and, if kept, the samples) it emitted since the last commit, to the
//     coordinator.
//   * `restart_budget`: how many times a shard's dead or hung worker is
//     replaced by a fresh incarnation.
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
#include "runtime/replay_monitor.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/spsc_ring.hpp"

#if defined(DART_TELEMETRY)
namespace dart::telemetry {
struct RuntimeMetrics;
}  // namespace dart::telemetry
#endif

namespace dart::runtime {

#if defined(DART_FAULT_INJECTION)
class FaultPlan;
#endif

struct ShardedConfig {
  /// Number of worker threads / monitor partitions (>= 1).
  std::uint32_t shards = 1;

  /// Packets accumulated per shard before a queue handoff. One push
  /// amortizes the ring synchronization over the whole batch.
  std::size_t batch_size = 256;

  /// Bounded ring capacity per shard, in batches. A full ring stalls the
  /// router (backpressure) rather than growing without bound.
  std::size_t queue_batches = 64;

  /// Routing hash seed; independent of the monitors' table hash seeds.
  std::uint64_t route_seed = 0xDA27'0002;

  /// How hard the router waits on a full ring before shedding the batch.
  OverloadPolicy overload;

  /// Epoch hook: when nonzero, `on_epoch(epoch, routed)` fires on the
  /// *router thread* after every `epoch_interval_packets` routed packets
  /// (epoch counts from 1; `routed` is the total routed so far, i.e.
  /// epoch * interval). This is the fleet exporter's barrier source: the
  /// callback runs between process() calls, so it may inspect router-side
  /// state and publish progress frames, but the workers have not
  /// necessarily consumed up to the cursor yet — it is a routing barrier,
  /// not a quiesce point. Keep the callback cheap; it stalls routing.
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

  /// Barrier cadence for checkpoint cuts. Disabled (the default) cuts
  /// none: a replacement worker then starts from empty state and the dead
  /// worker's whole window counts as lost.
  CheckpointPolicy checkpoint;

  /// Replacements each shard may consume for dead or hung workers. 0 (the
  /// default) never replaces one: the shard degrades to the shed path.
  std::uint32_t restart_budget = 0;

  /// A worker whose heartbeat makes no progress for this long while the
  /// router is backpressured on its full ring is declared hung and
  /// force-detached. 0 (the default) disables live hang detection; a hang
  /// then surfaces at finish() via join_timeout_ns.
  std::uint64_t hang_detection_ns = 0;

#if defined(DART_FAULT_INJECTION)
  /// Fault-injection hooks for the chaos suites; must outlive every worker.
  /// Hooks apply to packet batches only — barrier markers commit even at a
  /// kill point, which is what makes a kill at a barrier lossless. Only
  /// exists in DART_FAULT_INJECTION builds: the release worker loop
  /// contains no hook sites at all.
  FaultPlan* faults = nullptr;
#endif

#if defined(DART_TELEMETRY)
  /// Standard metric families to instrument; must outlive every worker.
  /// nullptr runs uninstrumented. Only exists in DART_TELEMETRY builds;
  /// with the option OFF the hot path contains no telemetry sites at all.
  telemetry::RuntimeMetrics* telemetry = nullptr;
#endif
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
  /// in monitor order (as for DartMonitor::process). Throws LifecycleError
  /// (kProcessAfterFinish) once finish() has run — the workers have joined
  /// and a routed batch would land in a ring with no consumer.
  void process(const PacketRecord& packet);

  /// Route a whole time-ordered stream; equivalent to process() on each
  /// packet in turn (same hook firings, cursors, barrier cuts and batches),
  /// but it finds the next epoch boundary once per segment, and with one
  /// shard and no barriers appends each segment to the batch in bulk. Same
  /// lifecycle contract as process().
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
  /// including the pending partial batch not yet handed to the ring. The
  /// cursors sum to routed_total(); an on_epoch callback may snapshot them
  /// to stamp a barrier frame. Same threading contract as routed_total().
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
  // the router acquires via join (or an exited load). The atomics are the
  // only fields both sides touch while the worker runs.
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
    std::atomic<bool> input_done{false};
    std::atomic<bool> dead{false};    ///< exited early (kill fault)
    std::atomic<bool> exited{false};  ///< worker loop finished (all paths)
#if defined(DART_FAULT_INJECTION)
    FaultPlan* faults = nullptr;
    std::uint64_t batches_done = 0;  ///< hook clock, incarnation-local
#endif
#if defined(DART_TELEMETRY)
    telemetry::RuntimeMetrics* metrics = nullptr;  ///< worker-read, may be null
#endif
  };

  // Router-side state; the router thread is its only writer.
  struct Shard {
    std::uint32_t index = 0;
    /// Current (or retired) worker; null once a hung one was detached and
    /// not replaced.
    std::shared_ptr<Incarnation> inc;
    std::vector<std::shared_ptr<Incarnation>> detached;  ///< hung zombies
    PacketBatch pending;          ///< router-side accumulation
    std::uint64_t routed = 0;     ///< handed to flush (incl. later shed)
    std::uint64_t delivered = 0;  ///< pushed into the pipeline
    std::uint64_t epoch = 0;
    std::uint64_t last_barrier_delivered = 0;
    std::uint64_t last_barrier_ts = 0;
    bool barrier_ts_armed = false;
    std::uint32_t restarts = 0;
    bool retired = false;         ///< no worker left: route to shed
    core::DartStats salvaged;     ///< last image's stats, for a lost worker
    core::RuntimeHealth health;   ///< router-side accounting
    // Settled by finish().
    core::DartStats result;
    analytics::SampleLog samples;
    analytics::LogHistogram rtt;

    // Heartbeat tracking for hang detection; a new incarnation disarms it.
    std::uint64_t hb_done = 0;
    std::uint64_t hb_since_ns = 0;
    bool hb_armed = false;
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
  /// Route packets that close no epoch before their last one.
  void route_segment(std::span<const PacketRecord> packets);
  void flush_shard(Shard& shard);
  void maybe_barrier(Shard& shard, Timestamp ts);
  void deliver(Shard& shard, Work&& work);
  void requeue(Shard& shard, std::vector<Work>&& carryover);
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
  bool barriers_ = false;           ///< config_.checkpoint.enabled()
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
