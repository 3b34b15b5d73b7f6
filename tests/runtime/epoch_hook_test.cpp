// Epoch-hook boundary arithmetic: on_epoch must fire exactly
// floor(routed / interval) times, on the router thread, with
// routed == epoch * interval at each firing and no trailing partial
// epoch at drain. The daemon's rotation barrier stands on this math, so
// the constexpr helpers are pinned down to the 2^63 edge. process_all,
// which routes a segment per epoch, is held to per-packet process() in
// everything but batch shape, and its batches to the per-call partition:
// every packet a call routes reaches its worker before the call returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gen/workload.hpp"
#include "runtime/epoch_math.hpp"
#include "runtime/lifecycle.hpp"
#include "runtime/replay_monitor.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart {
namespace {

using runtime::closes_epoch;
using runtime::epochs_completed;

trace::Trace small_workload() {
  gen::CampusConfig config;
  config.seed = 5;
  config.connections = 200;
  config.duration = sec(2);
  return gen::build_campus(config);
}

TEST(EpochMath, FloorDivision) {
  EXPECT_EQ(epochs_completed(0, 100), 0u);
  EXPECT_EQ(epochs_completed(99, 100), 0u);
  EXPECT_EQ(epochs_completed(100, 100), 1u);
  EXPECT_EQ(epochs_completed(101, 100), 1u);
  EXPECT_EQ(epochs_completed(1000, 100), 10u);
}

TEST(EpochMath, IntervalZeroMeansNoEpochs) {
  EXPECT_EQ(epochs_completed(12345, 0), 0u);
  EXPECT_FALSE(closes_epoch(12345, 0));
}

TEST(EpochMath, ClosesOnlyAtExactMultiples) {
  EXPECT_FALSE(closes_epoch(0, 100));  // nothing routed yet
  EXPECT_FALSE(closes_epoch(99, 100));
  EXPECT_TRUE(closes_epoch(100, 100));
  EXPECT_FALSE(closes_epoch(101, 100));
  EXPECT_TRUE(closes_epoch(200, 100));
  EXPECT_TRUE(closes_epoch(1, 1));  // every packet is a boundary
}

// The epoch clock is u64; the arithmetic must not wrap or lose precision
// near 2^63 (a daemon's routed_total is unbounded in principle).
TEST(EpochMath, LargeValuesStayExact) {
  const std::uint64_t big = 1ull << 63;
  EXPECT_EQ(epochs_completed(big, 1), big);
  EXPECT_EQ(epochs_completed(big, big), 1u);
  EXPECT_EQ(epochs_completed(big - 1, big), 0u);
  EXPECT_TRUE(closes_epoch(big, big));
  EXPECT_FALSE(closes_epoch(big - 1, big));
  EXPECT_TRUE(closes_epoch(big, 1ull << 31));
  EXPECT_EQ(epochs_completed(~0ull, 3), ~0ull / 3);
}

// constexpr: usable as compile-time constants (e.g. static_assert guards).
TEST(EpochMath, IsConstexpr) {
  static_assert(epochs_completed(1000, 100) == 10);
  static_assert(closes_epoch(1000, 100));
  static_assert(!closes_epoch(1001, 100));
  SUCCEED();
}

struct HookRecord {
  std::uint64_t epoch;
  std::uint64_t routed;
  std::thread::id thread;
};

std::vector<HookRecord> run_with_hook(const trace::Trace& trace,
                                      std::uint64_t interval,
                                      std::uint32_t shards) {
  std::vector<HookRecord> fired;
  runtime::ShardedConfig config;
  config.shards = shards;
  config.epoch_interval_packets = interval;
  runtime::ShardedMonitor* live = nullptr;
  config.on_epoch = [&fired, &live](std::uint64_t epoch,
                                    std::uint64_t routed) {
    HookRecord record{epoch, routed, std::this_thread::get_id()};
    fired.push_back(record);
    // Router-side cursors are readable inside the hook and sum to the
    // barrier's routed count — this is what the daemon snapshots.
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < live->shards(); ++i) {
      sum += live->shard_routed_cursor(i);
    }
    EXPECT_EQ(sum, routed);
  };
  runtime::ShardedMonitor monitor(config, core::DartConfig{});
  live = &monitor;
  monitor.process_all(trace.packets());
  monitor.finish();
  EXPECT_EQ(monitor.routed_total(), trace.size());
  return fired;
}

TEST(EpochHook, FiresFloorOfRoutedOverInterval) {
  const trace::Trace trace = small_workload();
  ASSERT_GT(trace.size(), 300u);
  const std::uint64_t interval = 97;  // prime: guarantees a partial tail
  const std::vector<HookRecord> fired = run_with_hook(trace, interval, 3);
  ASSERT_EQ(fired.size(), trace.size() / interval);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].epoch, i + 1);  // epochs count from 1
    EXPECT_EQ(fired[i].routed, (i + 1) * interval);
  }
}

// finish() must not fire a hook for the partial tail: the last firing is
// the last exact multiple, even though more packets were routed after it.
TEST(EpochHook, NoTrailingPartialEpochAtDrain) {
  const trace::Trace trace = small_workload();
  const std::uint64_t interval = trace.size() - 1;  // tail of exactly 1
  const std::vector<HookRecord> fired = run_with_hook(trace, interval, 2);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].routed, interval);
}

// A trace whose length is an exact multiple closes its final epoch on the
// last routed packet — no off-by-one at the boundary.
TEST(EpochHook, ExactMultipleClosesFinalEpoch) {
  trace::Trace trace = small_workload();
  ASSERT_GE(trace.size(), 500u);
  trace.packets().resize(500);  // exact multiple of 100
  const std::vector<HookRecord> fired = run_with_hook(trace, 100, 2);
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired.back().routed, 500u);
}

TEST(EpochHook, FiresOnRouterThread) {
  const trace::Trace trace = small_workload();
  const std::vector<HookRecord> fired = run_with_hook(trace, 128, 4);
  ASSERT_FALSE(fired.empty());
  // process_all runs on this thread, and the router *is* the caller.
  for (const HookRecord& record : fired) {
    EXPECT_EQ(record.thread, std::this_thread::get_id());
  }
}

TEST(EpochHook, IntervalZeroNeverFires) {
  const trace::Trace trace = small_workload();
  const std::vector<HookRecord> fired = run_with_hook(trace, 0, 2);
  EXPECT_TRUE(fired.empty());
}

// Everything the router decides, as the run saw it: each hook firing with
// the cursors it could read, each shard's ring batches as its worker
// popped them, the barrier cuts, and the settled per-shard results.
struct RoutedRun {
  std::vector<std::vector<std::uint64_t>> hooks;  ///< epoch, routed, cursors
  std::vector<std::vector<std::size_t>> batches;  ///< sizes, per shard
  std::vector<core::DartStats> stats;
  std::vector<std::vector<core::RttSample>> samples;
  std::vector<std::uint64_t> barrier_cuts;  ///< per shard
  std::vector<std::uint64_t> last_cut;      ///< latest image's cursor
};

class BatchRecordingMonitor : public runtime::DartReplayMonitor {
 public:
  BatchRecordingMonitor(core::SampleCallback on_sample,
                        std::vector<std::size_t>& sizes)
      : DartReplayMonitor(core::DartConfig{}, std::move(on_sample)),
        sizes_(sizes) {}
  void process_batch(std::span<const PacketRecord> packets) override {
    sizes_.push_back(packets.size());
    DartReplayMonitor::process_batch(packets);
  }

 private:
  std::vector<std::size_t>& sizes_;  ///< written by this shard's worker only
};

/// Routes `trace` with per-packet process() when `span` is 0, else with
/// process_all over consecutive spans of `span` packets.
RoutedRun route_in_spans(const trace::Trace& trace, std::uint32_t shards,
                         bool barriers, std::size_t span) {
  RoutedRun run;
  run.batches.resize(shards);
  runtime::ShardedConfig config;
  config.shards = shards;
  config.overload.shed_deadline_ns = sec(30);
  config.epoch_interval_packets = 100;
  if (barriers) config.restart_budget = 1;  // cuts at every epoch
  runtime::ShardedMonitor* live = nullptr;
  config.on_epoch = [&run, &live](std::uint64_t epoch, std::uint64_t routed) {
    std::vector<std::uint64_t> hook{epoch, routed};
    for (std::uint32_t i = 0; i < live->shards(); ++i) {
      hook.push_back(live->shard_routed_cursor(i));
    }
    run.hooks.push_back(std::move(hook));
  };
  runtime::ShardedMonitor monitor(
      config, [&run](std::uint32_t shard, core::SampleCallback on_sample) {
        return std::make_unique<BatchRecordingMonitor>(std::move(on_sample),
                                                       run.batches[shard]);
      });
  live = &monitor;
  const std::span<const PacketRecord> packets(trace.packets());
  if (span == 0) {
    for (const PacketRecord& packet : packets) monitor.process(packet);
  } else {
    for (std::size_t at = 0; at < packets.size(); at += span) {
      monitor.process_all(
          packets.subspan(at, std::min(span, packets.size() - at)));
    }
  }
  monitor.finish();
  EXPECT_THROW(monitor.process(packets.front()), runtime::LifecycleError);
  EXPECT_THROW(monitor.process_all(packets), runtime::LifecycleError);
  EXPECT_THROW(monitor.process_all({}), runtime::LifecycleError);

  for (std::uint32_t i = 0; i < shards; ++i) {
    core::DartStats stats = monitor.shard_stats(i);
    // Backpressure episodes and sleeps follow thread timing, not routing.
    stats.runtime.backpressure_events = 0;
    stats.runtime.backoff_sleeps = 0;
    run.stats.push_back(stats);
    run.samples.push_back(monitor.shard_samples(i).samples());
    run.barrier_cuts.push_back(monitor.coordinator().checkpoints_cut(i));
    core::SnapshotMeta meta;
    run.last_cut.push_back(
        monitor.coordinator().latest(i, nullptr, &meta) ? meta.cursor : 0);
  }
  EXPECT_EQ(monitor.routed_total(), trace.size());
  return run;
}

/// The ring batches process_all must hand each shard when `trace` arrives
/// in consecutive calls of `span` packets: each shard's share of one call
/// is cut at the batch size (256) and, with barriers, at every epoch
/// boundary (100), and is never carried into the next call.
std::vector<std::vector<std::size_t>> span_batches(const trace::Trace& trace,
                                                   std::uint32_t shards,
                                                   bool barriers,
                                                   std::size_t span) {
  const runtime::ShardRouter router(shards,
                                    runtime::ShardedConfig{}.route_seed);
  std::vector<std::vector<std::size_t>> batches(shards);
  std::vector<std::size_t> pending(shards, 0);
  const auto flush = [&](std::uint32_t shard) {
    if (pending[shard] == 0) return;
    batches[shard].push_back(pending[shard]);
    pending[shard] = 0;
  };
  const std::vector<PacketRecord>& packets = trace.packets();
  for (std::size_t routed = 0; routed < packets.size();) {
    const std::size_t end = std::min(routed + span, packets.size());
    for (; routed < end; ++routed) {
      const std::uint32_t shard = router.route(packets[routed].tuple);
      if (++pending[shard] == 256) flush(shard);
      if (barriers && (routed + 1) % 100 == 0) {
        for (std::uint32_t s = 0; s < shards; ++s) flush(s);
      }
    }
    for (std::uint32_t s = 0; s < shards; ++s) flush(s);
  }
  return batches;
}

// Span sizes straddle the ring batch (256) and the epoch interval (100),
// so segments end on, just before and just after every kind of boundary.
TEST(EpochHook, ProcessAllRoutesLikePerPacketProcess) {
  const trace::Trace trace = small_workload();
  ASSERT_GT(trace.size(), 1000u);
  for (const std::uint32_t shards : {1u, 3u}) {
    for (const bool barriers : {false, true}) {
      // First pin the per-packet run to what the router must do: hooks at
      // every 100th packet with the cursors ShardRouter implies, and (one
      // shard, no barriers) full ring batches up to the tail, since
      // process() hands a batch off only when it fills.
      const RoutedRun want = route_in_spans(trace, shards, barriers, 0);
      ASSERT_EQ(want.hooks.size(), trace.size() / 100);
      const runtime::ShardRouter router(shards,
                                        runtime::ShardedConfig{}.route_seed);
      std::vector<std::uint64_t> cursors(shards, 0);
      std::size_t routed = 0;
      for (std::size_t e = 0; e < want.hooks.size(); ++e) {
        for (; routed < (e + 1) * 100; ++routed) {
          ++cursors[router.route(trace.packets()[routed].tuple)];
        }
        std::vector<std::uint64_t> hook{e + 1, routed};
        hook.insert(hook.end(), cursors.begin(), cursors.end());
        EXPECT_EQ(want.hooks[e], hook);
      }
      if (barriers) {
        EXPECT_GT(want.barrier_cuts[0], 0u);
      } else if (shards == 1) {
        const std::vector<std::size_t>& sizes = want.batches[0];
        ASSERT_EQ(sizes.size(), (trace.size() + 255) / 256);
        for (std::size_t b = 0; b + 1 < sizes.size(); ++b) {
          EXPECT_EQ(sizes[b], 256u);
        }
      }
      for (const std::size_t span : {1u, 255u, 256u, 257u, 99u, 100u, 101u}) {
        SCOPED_TRACE("shards " + std::to_string(shards) + " barriers " +
                     std::to_string(barriers) + " span " +
                     std::to_string(span));
        const RoutedRun got = route_in_spans(trace, shards, barriers, span);
        EXPECT_EQ(got.hooks, want.hooks);
        EXPECT_EQ(got.batches, span_batches(trace, shards, barriers, span));
        EXPECT_EQ(got.barrier_cuts, want.barrier_cuts);
        EXPECT_EQ(got.last_cut, want.last_cut);
        EXPECT_EQ(got.stats, want.stats);
        EXPECT_EQ(got.samples, want.samples);
      }
    }
  }
}

/// Counts the packets its worker has processed, readable from any thread.
class CountingMonitor : public runtime::DartReplayMonitor {
 public:
  CountingMonitor(core::SampleCallback on_sample,
                  std::atomic<std::size_t>& processed)
      : DartReplayMonitor(core::DartConfig{}, std::move(on_sample)),
        processed_(processed) {}
  void process_batch(std::span<const PacketRecord> packets) override {
    DartReplayMonitor::process_batch(packets);
    processed_.fetch_add(packets.size(), std::memory_order_release);
  }

 private:
  std::atomic<std::size_t>& processed_;
};

// A call routing fewer packets than a batch still delivers all of them:
// with no further call and no finish(), the workers process every packet.
TEST(EpochHook, ProcessAllDeliversAPartialBatchBeforeReturning) {
  const trace::Trace trace = small_workload();
  for (const std::uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    std::atomic<std::size_t> processed{0};
    runtime::ShardedConfig config;
    config.shards = shards;
    runtime::ShardedMonitor monitor(
        config, [&processed](std::uint32_t, core::SampleCallback on_sample) {
          return std::make_unique<CountingMonitor>(std::move(on_sample),
                                                   processed);
        });
    const std::size_t k = 100;
    ASSERT_LT(k, config.batch_size);
    monitor.process_all(std::span(trace.packets()).first(k));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (processed.load(std::memory_order_acquire) < k &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(processed.load(std::memory_order_acquire), k);
    monitor.finish();
    EXPECT_EQ(monitor.merged_stats().packets_processed, k);
  }
}

}  // namespace
}  // namespace dart
