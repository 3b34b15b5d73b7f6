// ShardedMonitor: flow-affinity parallel replay across N worker threads.
//
//                      +-> [ring] -> worker 0: DartMonitor -> log 0 + hist 0
//   packets -> router -+-> [ring] -> worker 1: DartMonitor -> log 1 + hist 1
//                      +-> [ring] -> worker 2: DartMonitor -> log 2 + hist 2
//
// The caller's thread routes each packet by the canonical 4-tuple hash onto
// one of N shards; each shard is a worker thread owning a private monitor
// (no shared mutable state between shards). Handoff is batched (~256
// packets per push) through bounded SPSC rings; a full ring backpressures
// the router, bounding memory at O(shards * queue depth * batch).
//
// Each worker's sample sink both appends to its shard's SampleLog ("log")
// and bins the RTT into its shard's LogHistogram ("hist"), so the RTT
// distribution is aggregated as it is measured: `rtt_histogram()` merges
// the N shard histograms bin by bin at drain, with no per-sample work left
// to do.
//
// Determinism: both directions of a connection hash to the same shard and
// the single router preserves arrival order into each FIFO ring, so every
// flow sees exactly the packet subsequence — in exactly the order — it
// would see in a single-monitor run. With per-flow monitor state (unbounded
// tables), the merged sample stream is therefore bit-identical *as a
// multiset* to the single-monitor reference, and merged DartStats equal the
// reference counters; `merged_samples()` returns the canonical sorted order
// so equal multisets compare equal as vectors. A LogHistogram is
// order-independent (bin counts plus min and max), so the merged histogram
// equals one filled from `merged_samples()` in any regime. Bounded tables
// shared by many flows break the single-monitor equivalence by design
// (shards see different collision patterns); the differential tests pin
// down both regimes.
//
// Graceful degradation: backpressure is *bounded*. When a shard's ring
// stays full past the OverloadPolicy's deadline (spin -> exponential
// backoff -> shed), the router drops that batch and accounts it in the
// shard's RuntimeHealth (shed_batches / shed_packets) instead of freezing
// the whole pipeline behind one sick worker — the invariant is
//
//     processed + shed + abandoned == routed        (per shard and merged)
//
// where `abandoned` is nonzero only for a worker that wedged so hard the
// shutdown join timed out and the runtime force-detached it. A worker that
// exits early (a kill fault, or a crash-turned-clean-exit) flips its dead
// flag; the router then sheds immediately and finish() drains and accounts
// whatever was left in the ring. See DESIGN.md "Failure model".
#pragma once

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

  /// Workers hand each dequeued ring batch to ReplayMonitor::process_batch
  /// (DartMonitor's batched SoA fast path). false forces the per-packet
  /// virtual loop — the scalar baseline the batch differential suite and
  /// bench_throughput's scalar rows compare against. Routing, ordering,
  /// shed/backpressure accounting, and result merging are identical in
  /// both modes; only the worker's inner loop changes.
  bool batched_workers = true;

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

  /// How long finish() waits for a worker to exit before force-detaching
  /// it (diagnosed in RuntimeHealth::forced_detaches). After end-of-input a
  /// healthy worker only has the ring's backlog left, so this bounds
  /// shutdown: it fires only for a genuinely wedged worker. 0 waits
  /// forever (the pre-timeout behavior).
  std::uint64_t join_timeout_ns = 30'000'000'000ULL;  // 30 s

#if defined(DART_FAULT_INJECTION)
  /// Fault-injection hooks for the chaos suite; must outlive the monitor
  /// (or at least every worker). Only exists in DART_FAULT_INJECTION
  /// builds — the release worker loop contains no hook sites at all.
  FaultPlan* faults = nullptr;
#endif

#if defined(DART_TELEMETRY)
  /// Standard metric families to instrument; must outlive every worker
  /// (keepalive-referenced like the shards themselves is overkill — the
  /// registry typically outlives the whole run). nullptr runs
  /// uninstrumented. Only exists in DART_TELEMETRY builds; with the option
  /// OFF the hot path contains no telemetry sites at all.
  telemetry::RuntimeMetrics* telemetry = nullptr;
#endif
};

class ShardedMonitor {
 public:
  /// Workers are started immediately; `factory` is invoked once per shard
  /// on the constructing thread.
  ShardedMonitor(const ShardedConfig& config, MonitorFactory factory);

  /// Convenience: every shard runs a private DartMonitor with this config.
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

  /// Route a whole time-ordered stream. Same lifecycle contract as
  /// process().
  void process_all(std::span<const PacketRecord> packets);

  /// Flush partial batches, signal end-of-stream, and join all workers
  /// (bounded by join_timeout_ns per worker). Results are available
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

  /// Per-shard results; valid only after finish(). A force-detached
  /// shard's samples are unreadable (its worker may still touch them) and
  /// come back empty; its stats carry only the RuntimeHealth accounting.
  const analytics::SampleLog& shard_samples(std::uint32_t shard) const;
  core::DartStats shard_stats(std::uint32_t shard) const;

  /// Sum of all per-shard counters (including RuntimeHealth); valid only
  /// after finish().
  core::DartStats merged_stats() const;

  /// Merged degradation accounting alone; valid only after finish().
  core::RuntimeHealth health() const;

  /// All shards' samples in the canonical `sample_less` order — the
  /// deterministic merge, for tests and CSV export; aggregates read
  /// rtt_histogram() instead. Copies and sorts every sample. Valid only
  /// after finish(); skips force-detached shards (their logs are not safely
  /// readable).
  std::vector<core::RttSample> merged_samples() const;

  /// The RTT distribution of every sample, binned by the workers as they
  /// emitted it and merged across shards (exact: every shard histogram has
  /// the default layout). Equal to a LogHistogram filled from
  /// merged_samples(), without copying or sorting a sample. Valid only
  /// after finish(); skips force-detached shards, like merged_samples().
  analytics::LogHistogram rtt_histogram() const;

  /// Wait up to `timeout_ns` for any force-detached workers to finally
  /// exit (e.g. after a fault plan released a hang). Returns true when
  /// none remain running. Valid only after finish().
  bool await_detached(std::uint64_t timeout_ns) const;

 private:
  using PacketBatch = std::vector<PacketRecord>;

  // Lock-free cross-thread protocol, in DART_PUBLISHED_BY terms: the
  // constructing thread publishes monitor/faults/metrics to the worker via
  // thread creation; the worker publishes samples/rtt/final_stats back with
  // its exited release-store, which finish() acquires via join (or an
  // exited load, for a detached worker). Everything else is
  // single-thread-owned.
  struct Shard {
    explicit Shard(std::size_t queue_batches) : queue(queue_batches) {}

    SpscRing<PacketBatch> queue;
    // Worker-owned while running; readable only after exited.
    std::unique_ptr<ReplayMonitor> monitor DART_PUBLISHED_BY(exited);
    analytics::SampleLog samples DART_PUBLISHED_BY(exited);
    analytics::LogHistogram rtt DART_PUBLISHED_BY(exited);
    core::DartStats final_stats DART_PUBLISHED_BY(exited);
    PacketBatch pending;  // router-side accumulation
    std::thread thread;
    std::uint32_t index = 0;
    bool batched = true;  // worker-loop mode, copied from the config
    std::atomic<bool> input_done{false};
    std::atomic<bool> dead{false};    // worker exited before end-of-input
    std::atomic<bool> exited{false};  // worker loop finished (all paths)
    bool detached = false;            // join timed out; worker abandoned
    std::uint64_t routed_packets = 0;      // router-side: handed to flush
    core::RuntimeHealth health;            // router-side accounting
    core::DartStats result;                // snapshot assembled by finish()
#if defined(DART_FAULT_INJECTION)
    FaultPlan* faults = nullptr;
#endif
#if defined(DART_TELEMETRY)
    telemetry::RuntimeMetrics* metrics = nullptr;  // worker-read, may be null
#endif
  };

  void start(MonitorFactory factory);
  // The whole finish() sequence minus the lifecycle check, safe from the
  // destructor: flush, end-of-input, join/detach, settle results, fold
  // telemetry. Idempotent.
  void shutdown() noexcept;
  void flush_shard(Shard& shard);
  void push_or_shed(Shard& shard, PacketBatch&& batch);
  void join_or_detach(Shard& shard);
  static void drain_as_shed(Shard& shard);
  static void worker_loop(Shard& shard);

  ShardedConfig config_;
  ShardRouter router_;
  std::uint64_t routed_total_ = 0;  ///< router-side packets, epoch clock
  std::uint64_t epochs_fired_ = 0;
  // shared_ptr, not unique_ptr: each worker holds a reference to its own
  // Shard, so a force-detached worker that wakes up later still touches
  // live memory even after the ShardedMonitor is gone.
  std::vector<std::shared_ptr<Shard>> shards_;
  bool finished_ = false;
};

/// Canonicalize a sample stream into the `sample_less` total order, in
/// place. Applying this to a single-monitor run and comparing against
/// `merged_samples()` is the multiset-equality test.
void deterministic_order(std::vector<core::RttSample>& samples);

}  // namespace dart::runtime
