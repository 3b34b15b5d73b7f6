// Chaos suite: drives every FaultPlan scenario against the sharded replay
// runtime and asserts the graceful-degradation contract (ISSUE 3):
//
//   (i)   liveness    — a stalled, killed, or hanged worker never deadlocks
//                       the router; every test finishes well inside the
//                       60 s ctest watchdog;
//   (ii)  determinism — for a fixed seed and fault plan, shed accounting
//                       and merged results are identical run to run;
//   (iii) accounting  — processed + shed + abandoned == routed, exactly,
//                       and a faulty run's merged stats equal the
//                       fault-free run minus exactly the shed packets.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/overload_policy.hpp"
#include "runtime/replay_monitor.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"

namespace dart {
namespace {

trace::Trace chaos_workload(std::uint64_t seed) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = 800;
  config.duration = sec(5);
  return gen::build_campus(config);
}

core::DartConfig monitor_config() {
  core::DartConfig config;
  config.rt_idle_timeout = sec(2);
  return config;
}

// Small, aggressive geometry: tiny rings and a short shed deadline so
// overload scenarios resolve in milliseconds, not the default seconds.
runtime::ShardedConfig chaos_config(runtime::FaultPlan* plan) {
  runtime::ShardedConfig config;
  config.shards = 4;
  config.batch_size = 32;
  config.queue_batches = 2;
  config.overload.spin_budget = 64;
  config.overload.backoff_initial_ns = 10'000;       // 10 us
  config.overload.backoff_max_ns = 200'000;          // 200 us
  config.overload.shed_deadline_ns = 10'000'000;     // 10 ms
  config.faults = plan;
  return config;
}

struct RunResult {
  core::DartStats merged;
  core::RuntimeHealth health;
  std::vector<core::RttSample> samples;
  std::uint64_t rtt_count = 0;  ///< rtt_histogram().count()
};

RunResult run_with_plan(const trace::Trace& trace,
                        runtime::FaultPlan* plan,
                        std::uint64_t join_timeout_ns = 0) {
  runtime::ShardedConfig config = chaos_config(plan);
  if (join_timeout_ns != 0) config.join_timeout_ns = join_timeout_ns;
  runtime::ShardedMonitor sharded(config, monitor_config());
  sharded.process_all(trace.packets());
  sharded.finish();
  return {sharded.merged_stats(), sharded.health(), sharded.merged_samples(),
          sharded.rtt_histogram().count()};
}

RunResult fault_free_reference(const trace::Trace& trace) {
  return run_with_plan(trace, nullptr);
}

TEST(Chaos, StalledWorkerShedsInsteadOfDeadlocking) {
  const trace::Trace trace = chaos_workload(42);
  // Shard 0 sleeps 100 ms before every batch — far past the 10 ms shed
  // deadline — so its ring stays full and the router must shed. The old
  // runtime's unbounded yield loop would hang here forever.
  runtime::FaultPlan plan;
  plan.stall(/*shard=*/0, /*first_batch=*/0,
             /*batches=*/~std::uint64_t{0} >> 1, /*delay_ns=*/100'000'000);
  runtime::ShardedConfig config = chaos_config(&plan);
  // The shed decision accumulates *requested* backoff, not wall time. On an
  // oversubscribed host a starved router may get only a handful of push
  // attempts per stall window, so climb in 1-2 ms steps: the deadline is
  // then reached within ~7 attempts per episode, load notwithstanding.
  config.overload.backoff_initial_ns = 1'000'000;  // 1 ms
  config.overload.backoff_max_ns = 2'000'000;      // 2 ms
  runtime::ShardedMonitor sharded(config, monitor_config());
  sharded.process_all(trace.packets());
  sharded.finish();
  const RunResult faulty{sharded.merged_stats(), sharded.health(),
                         sharded.merged_samples(),
                         sharded.rtt_histogram().count()};

  EXPECT_GT(faulty.health.shed_packets, 0U);
  EXPECT_GT(faulty.health.backpressure_events, 0U);
  EXPECT_EQ(faulty.health.forced_detaches, 0U);
  EXPECT_EQ(faulty.health.abandoned_packets, 0U);
  // Accounting identity: every routed packet was either processed by a
  // monitor or shed with a count — none vanished.
  EXPECT_EQ(faulty.merged.packets_processed + faulty.health.shed_packets,
            trace.packets().size());
  // The other shards' coverage is untouched: the run still made samples.
  EXPECT_GT(faulty.merged.samples, 0U);
}

TEST(Chaos, KilledWorkerShedsDeterministically) {
  const trace::Trace trace = chaos_workload(1337);
  const RunResult clean = fault_free_reference(trace);
  ASSERT_EQ(clean.health.shed_packets, 0U);
  ASSERT_EQ(clean.merged.packets_processed, trace.packets().size());

  auto killed_run = [&trace] {
    runtime::FaultPlan plan;
    plan.kill(/*shard=*/1, /*after_batches=*/3);
    return run_with_plan(trace, &plan);
  };
  const RunResult first = killed_run();
  const RunResult second = killed_run();

  // The worker processed exactly 3 batches before dying; everything else
  // routed to shard 1 must be shed — and identically so on every run.
  EXPECT_EQ(first.health.workers_killed, 1U);
  EXPECT_GT(first.health.shed_packets, 0U);
  EXPECT_EQ(first.health.shed_packets, second.health.shed_packets);
  EXPECT_EQ(first.health.shed_batches, second.health.shed_batches);
  EXPECT_EQ(first.merged.packets_processed, second.merged.packets_processed);
  EXPECT_EQ(first.samples, second.samples);
  // The dead worker's histogram keeps exactly the samples its log kept.
  EXPECT_EQ(first.rtt_count, first.samples.size());
  EXPECT_EQ(second.rtt_count, second.samples.size());

  // merged == fault_free − shed, exactly.
  EXPECT_EQ(first.merged.packets_processed + first.health.shed_packets,
            clean.merged.packets_processed);
  EXPECT_EQ(first.merged.packets_processed + first.health.shed_packets,
            trace.packets().size());
  EXPECT_LT(first.merged.samples, clean.merged.samples);
}

TEST(Chaos, WorkerKilledBeforeFirstBatchLosesOnlyItsShard) {
  const trace::Trace trace = chaos_workload(7);
  runtime::FaultPlan plan;
  plan.kill(/*shard=*/2, /*after_batches=*/0);
  const RunResult faulty = run_with_plan(trace, &plan);

  EXPECT_EQ(faulty.health.workers_killed, 1U);
  EXPECT_EQ(faulty.merged.packets_processed + faulty.health.shed_packets,
            trace.packets().size());
  // Shard 2 contributed nothing; the other three shards are fully intact.
  EXPECT_GT(faulty.merged.samples, 0U);
}

TEST(Chaos, HangedWorkerIsForceDetachedNotWaitedForever) {
  const trace::Trace trace = chaos_workload(99);
  runtime::FaultPlan plan;
  plan.hang(/*shard=*/0, /*at_batch=*/0);
  runtime::ShardedConfig config = chaos_config(&plan);
  config.join_timeout_ns = 100'000'000;  // 100 ms

  runtime::ShardedMonitor sharded(config, monitor_config());
  sharded.process_all(trace.packets());
  sharded.finish();  // must return despite the wedged worker

  const core::RuntimeHealth health = sharded.health();
  EXPECT_EQ(health.forced_detaches, 1U);
  // The wedged shard's packets are accounted: shed at the full ring, or
  // abandoned with the worker. Everyone else processed normally.
  EXPECT_EQ(sharded.merged_stats().packets_processed +
                health.shed_packets + health.abandoned_packets,
            trace.packets().size());
  EXPECT_GT(health.abandoned_packets, 0U);
  // Detached shard results are sealed off, not racy: empty samples, zero
  // monitor counters, health only.
  EXPECT_EQ(sharded.shard_samples(0).size(), 0U);
  EXPECT_EQ(sharded.shard_stats(0).packets_processed, 0U);
  EXPECT_EQ(sharded.shard_stats(0).runtime.forced_detaches, 1U);
  // The merged histogram skips the detached shard exactly as the merged
  // samples do.
  EXPECT_EQ(sharded.rtt_histogram().count(), sharded.merged_samples().size());

  // Release the hang so the worker can run to completion against its
  // keepalive reference; the monitor must outlast nothing — but waiting
  // here keeps the sanitizers' end-of-process thread accounting clean.
  plan.release_hangs();
  EXPECT_TRUE(sharded.await_detached(sec(30)));
}

// With raw samples off, a killed worker that is not replaced retires with
// its histogram, exactly as the kept run retires with its samples. The
// retired shard sheds without waiting, so a long shed deadline only keeps
// the healthy shards from shedding on a loaded host.
TEST(Chaos, KilledWorkerKeepsItsHistogramWithoutSamples) {
  const trace::Trace trace = chaos_workload(1337);
  runtime::FaultPlan kept_plan;
  kept_plan.kill(/*shard=*/1, /*after_batches=*/3);
  runtime::FaultPlan dropped_plan;
  dropped_plan.kill(/*shard=*/1, /*after_batches=*/3);

  runtime::ShardedConfig config = chaos_config(&kept_plan);
  config.overload.shed_deadline_ns = sec(10);
  const auto kept =
      runtime_check::finished_run(config, monitor_config(), trace.packets());
  config.faults = &dropped_plan;
  config.keep_samples = false;
  const auto dropped =
      runtime_check::finished_run(config, monitor_config(), trace.packets());

  EXPECT_EQ(dropped->health().workers_killed, 1U);
  EXPECT_GT(dropped->health().shed_packets, 0U);
  EXPECT_EQ(dropped->health().shed_packets, kept->health().shed_packets);
  EXPECT_GT(dropped->shard_stats(1).samples, 0U);
  runtime_check::expect_samples_dropped(*dropped, *kept);
}

// A force-detached worker without a checkpoint reports nothing, with or
// without raw samples; every other shard reports the kept run's histogram.
// A long shed deadline keeps the healthy shards shed-free, and live hang
// detection retires the wedged one instead of waiting on it.
TEST(Chaos, DetachedWorkerReportsNoHistogramWithoutSamples) {
  const trace::Trace trace = chaos_workload(99);
  std::unique_ptr<runtime::ShardedMonitor> runs[2];
  runtime::FaultPlan plans[2];
  for (int i = 0; i < 2; ++i) {
    plans[i].hang(/*shard=*/0, /*at_batch=*/0);
    runtime::ShardedConfig config = chaos_config(&plans[i]);
    config.overload.shed_deadline_ns = sec(10);
    config.hang_detection_ns = 50'000'000;  // 50 ms
    config.keep_samples = i == 0;
    runs[i] =
        runtime_check::finished_run(config, monitor_config(), trace.packets());
    plans[i].release_hangs();
    EXPECT_TRUE(runs[i]->await_detached(sec(30)));
  }
  const runtime::ShardedMonitor& kept = *runs[0];
  const runtime::ShardedMonitor& dropped = *runs[1];
  EXPECT_EQ(dropped.health().forced_detaches, 1U);
  EXPECT_EQ(dropped.shard_stats(0).packets_processed, 0U);
  EXPECT_EQ(dropped.merged_stats().packets_processed,
            kept.merged_stats().packets_processed);
  EXPECT_GT(dropped.merged_stats().samples, 0U);
  runtime_check::expect_samples_dropped(dropped, kept);
}

TEST(Chaos, CleanExitAtJoinDeadlineIsNeverAbandoned) {
  // Pins the join_or_detach ordering bug: the deadline check used to fire
  // without re-reading `exited`, so a worker that finished its final batch
  // right at the deadline could be detached anyway — its fully-merged
  // DartStats discarded while its packets stayed counted in `routed`.
  // The release time is swept across the join deadline so some iterations
  // join cleanly, some detach, and some land in the race window; the
  // contract must hold on every side of it.
  const trace::Trace trace = chaos_workload(77);
  constexpr std::uint64_t kJoinTimeoutNs = 20'000'000;  // 20 ms
  for (int i = 0; i < 10; ++i) {
    runtime::FaultPlan plan;
    plan.hang(/*shard=*/0, /*at_batch=*/0);
    runtime::ShardedConfig config = chaos_config(&plan);
    config.join_timeout_ns = kJoinTimeoutNs;
    runtime::ShardedMonitor sharded(config, monitor_config());
    sharded.process_all(trace.packets());

    // Release the hang just around the deadline (16..25 ms in 1 ms steps).
    std::thread releaser([&plan, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(16 + i));
      plan.release_hangs();
    });
    sharded.finish();
    releaser.join();

    const core::RuntimeHealth health = sharded.health();
    const core::DartStats merged = sharded.merged_stats();
    // The accounting identity holds regardless of which way the race went.
    EXPECT_EQ(merged.packets_processed + health.shed_packets +
                  health.abandoned_packets,
              trace.packets().size());
    if (health.forced_detaches == 0) {
      // The worker exited in time, so its work must be fully merged:
      // nothing abandoned, shard 0's counters and samples present.
      EXPECT_EQ(health.abandoned_packets, 0U);
      EXPECT_GT(sharded.shard_stats(0).packets_processed, 0U);
    } else {
      // Genuinely wedged past the deadline; the release (already sent)
      // lets the zombie run out against its keepalive reference.
      EXPECT_EQ(sharded.shard_stats(0).packets_processed, 0U);
      EXPECT_TRUE(sharded.await_detached(sec(30)));
    }
  }
}

TEST(Chaos, JitteredConsumptionBackpressuresWithoutLoss) {
  const trace::Trace trace = chaos_workload(2022);
  const RunResult clean = fault_free_reference(trace);

  auto jittered_run = [&trace] {
    runtime::FaultPlan plan(/*seed=*/0xD1CE);
    for (std::uint32_t shard = 0; shard < 4; ++shard) {
      plan.jitter(shard, /*max_delay_ns=*/300'000);  // up to 0.3 ms/batch
    }
    return run_with_plan(trace, &plan);
  };
  const RunResult faulty = jittered_run();

  // Slow consumption forces backpressure, but every worker keeps making
  // progress inside the deadline: nothing is shed, nothing is lost, and
  // the merged results are bit-identical to the fault-free run.
  EXPECT_EQ(faulty.health.shed_packets, 0U);
  EXPECT_EQ(faulty.merged.packets_processed, trace.packets().size());
  EXPECT_EQ(faulty.samples, clean.samples);
  EXPECT_EQ(faulty.merged.samples, clean.merged.samples);
}

TEST(Chaos, SkewedTimestampsDegradeGracefully) {
  // Input-side fault: non-monotonic, jittered timestamps (a damaged
  // capture or a misbehaving capture clock). The runtime must neither
  // crash nor lose accounting, and must stay deterministic per seed.
  trace::Trace skewed = chaos_workload(555);
  runtime::inject_timestamp_skew(skewed.packets(), /*seed=*/77,
                                 /*max_skew_ns=*/msec(50));
  EXPECT_FALSE(skewed.is_time_ordered());  // the fault is real

  const RunResult first = run_with_plan(skewed, nullptr);
  const RunResult second = run_with_plan(skewed, nullptr);

  EXPECT_EQ(first.health.shed_packets, 0U);
  EXPECT_EQ(first.merged.packets_processed, skewed.packets().size());
  EXPECT_EQ(first.samples, second.samples);

  // Sharded replay of the skewed trace matches a single monitor fed the
  // same skewed stream: flow order is preserved regardless of timestamps.
  EXPECT_EQ(first.samples, runtime_check::single_monitor_samples(
                               monitor_config(), skewed.packets()));
}

TEST(Chaos, CombinedStallAndKillAcrossShards) {
  // Multiple simultaneous faults: shard 0 stalls (sheds under deadline),
  // shard 3 dies after 5 batches. Liveness and the accounting identity
  // must survive the combination.
  const trace::Trace trace = chaos_workload(31337);
  runtime::FaultPlan plan;
  plan.stall(/*shard=*/0, /*first_batch=*/0,
             /*batches=*/~std::uint64_t{0} >> 1, /*delay_ns=*/30'000'000)
      .kill(/*shard=*/3, /*after_batches=*/5);
  const RunResult faulty = run_with_plan(trace, &plan);

  EXPECT_EQ(faulty.health.workers_killed, 1U);
  EXPECT_GT(faulty.health.shed_packets, 0U);
  EXPECT_EQ(faulty.health.forced_detaches, 0U);
  EXPECT_EQ(faulty.merged.packets_processed + faulty.health.shed_packets,
            trace.packets().size());
}

// Holds its shard's worker inside the first batch it pops until released,
// as a FaultPlan hang at batch 0 does, and tells the test when the worker
// got there: the ring then fills at a known batch, whatever the host's
// scheduling, so the shed counts below are exact.
class Gate {
 public:
  void hold() {
    std::unique_lock lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void await_entered() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    const std::lock_guard lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

class GatedMonitor : public runtime::ReplayMonitor {
 public:
  GatedMonitor(core::SampleCallback on_sample, Gate* gate)
      : inner_(monitor_config(), std::move(on_sample)), gate_(gate) {}
  void process(const PacketRecord& packet) override { inner_.process(packet); }
  void process_batch(std::span<const PacketRecord> packets) override {
    if (gate_ != nullptr) std::exchange(gate_, nullptr)->hold();
    inner_.process_batch(packets);
  }
  core::DartStats stats() const override { return inner_.stats(); }

 private:
  runtime::DartReplayMonitor inner_;
  Gate* gate_;
};

// A wedged shard costs the router one shed deadline, not one per batch: its
// full-ring episode outlives the batch that shed, so every later batch that
// meets the still-full ring is shed after the spin budget, with no sleep.
// Two shards under the default OverloadPolicy (a 2 s deadline); shard 0 is
// held in batch 0 through three process_all() calls: one that hands it
// batch 0, one that fills its ring and sheds for the first time, and one
// routed wholly after that first shed.
TEST(Chaos, WedgedShardPaysOneDeadlinePerEpisode) {
  gen::CampusConfig campus;
  campus.seed = 2026;
  campus.connections = 3000;
  campus.duration = sec(5);
  const trace::Trace trace = gen::build_campus(campus);
  const std::span<const PacketRecord> packets(trace.packets());
  constexpr std::size_t kFirst = 64;
  constexpr std::size_t kSecond = 12'000;
  ASSERT_GT(packets.size(), kFirst + kSecond + 20'000);

  runtime::ShardedConfig config;
  config.shards = 2;
  const std::uint64_t batch = config.batch_size;
  const std::uint64_t ring = config.queue_batches;
  const auto ceil_div = [](std::uint64_t a, std::uint64_t b) {
    return (a + b - 1) / b;
  };

  // Wall time of the third call; the same calls without the gate give
  // the fault-free reference.
  const auto run = [&](Gate* gate, telemetry::RuntimeMetrics* metrics,
                       std::vector<std::uint64_t>* cursors) {
    runtime::ShardedConfig c = config;
    c.telemetry = metrics;
    auto sharded = std::make_unique<runtime::ShardedMonitor>(
        c, [gate](std::uint32_t shard, core::SampleCallback on_sample) {
          return std::make_unique<GatedMonitor>(std::move(on_sample),
                                                shard == 0 ? gate : nullptr);
        });
    sharded->process_all(packets.first(kFirst));
    cursors->push_back(sharded->shard_routed_cursor(0));
    if (gate != nullptr) gate->await_entered();
    sharded->process_all(packets.subspan(kFirst, kSecond));
    cursors->push_back(sharded->shard_routed_cursor(0));
    const auto start = std::chrono::steady_clock::now();
    sharded->process_all(packets.subspan(kFirst + kSecond));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    cursors->push_back(sharded->shard_routed_cursor(0));
    if (gate != nullptr) gate->release();
    sharded->finish();
    return std::make_pair(std::move(sharded), elapsed);
  };

  std::vector<std::uint64_t> clean_cursors;
  const auto clean = run(nullptr, nullptr, &clean_cursors);
  Gate gate;
  telemetry::Registry registry(config.shards);
  telemetry::RuntimeMetrics metrics(registry);
  std::vector<std::uint64_t> cursors;
  const auto wedged = run(&gate, &metrics, &cursors);
  const runtime::ShardedMonitor& sharded = *wedged.first;
  std::printf("[ timing   ] third call (%zu packets): wedged %.2f ms, "
              "fault-free %.2f ms\n",
              packets.size() - kFirst - kSecond,
              std::chrono::duration<double, std::milli>(wedged.second).count(),
              std::chrono::duration<double, std::milli>(clean.second).count());

  // Shard 0 holds batch 0 (the first call's share) and a ring of full
  // second-call batches; every batch after those is shed.
  const std::uint64_t first = cursors[0];
  const std::uint64_t second = cursors[1] - cursors[0];
  const std::uint64_t third = cursors[2] - cursors[1];
  ASSERT_GT(first, 0U);
  ASSERT_GT(second, ring * batch);
  ASSERT_GT(third, 0U);
  const core::DartStats shard0 = sharded.shard_stats(0);
  EXPECT_EQ(shard0.packets_processed, first + ring * batch);
  EXPECT_EQ(shard0.runtime.shed_packets, second - ring * batch + third);
  EXPECT_EQ(shard0.runtime.shed_batches,
            ceil_div(second, batch) - ring + ceil_div(third, batch));

  // One episode's sleeps: the first shed waited out the deadline, and no
  // later batch slept.
  runtime::OverloadGovernor governor(config.overload);
  std::uint64_t episode_sleeps = 0;
  for (runtime::OverloadDecision d = governor.next();
       d.action != runtime::OverloadAction::kShed; d = governor.next()) {
    if (d.action == runtime::OverloadAction::kSleep) ++episode_sleeps;
  }
  EXPECT_EQ(shard0.runtime.backoff_sleeps, episode_sleeps);
  EXPECT_EQ(metrics.governor_backoffs->at(0).value(), 1U);
  EXPECT_EQ(metrics.governor_sheds->at(0).value(),
            shard0.runtime.shed_batches);

  // The healthy shard lost nothing.
  const core::DartStats shard1 = sharded.shard_stats(1);
  EXPECT_EQ(shard1.packets_processed, sharded.shard_routed_cursor(1));
  EXPECT_EQ(shard1.runtime.shed_packets, 0U);

  for (std::uint32_t i = 0; i < config.shards; ++i) {
    const core::DartStats stats = sharded.shard_stats(i);
    EXPECT_EQ(stats.packets_processed + stats.runtime.shed_packets +
                  stats.runtime.abandoned_packets +
                  stats.runtime.lost_to_crash,
              sharded.shard_routed_cursor(i))
        << "shard " << i;
  }
}

TEST(Chaos, FaultFreePlanIsANoOp) {
  // An armed but empty plan must be bit-identical to running with no plan
  // at all.
  const trace::Trace trace = chaos_workload(4242);
  const RunResult clean = fault_free_reference(trace);
  runtime::FaultPlan empty_plan;
  const RunResult with_plan = run_with_plan(trace, &empty_plan);

  EXPECT_EQ(with_plan.health.shed_packets, 0U);
  EXPECT_EQ(with_plan.samples, clean.samples);
  EXPECT_EQ(with_plan.merged.packets_processed,
            clean.merged.packets_processed);
}

}  // namespace
}  // namespace dart
