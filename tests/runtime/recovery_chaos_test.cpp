// Recovery chaos suite: kills and hangs workers under ShardedMonitor's
// recovery policy and asserts the crash-recovery contract end to end:
//
//   (i)   bounded loss  — a kill between barriers loses exactly the packets
//                         the dead worker processed after its last committed
//                         cut (≤ one checkpoint interval); a kill landing on
//                         a barrier loses nothing at all;
//   (ii)  determinism   — for a fixed (trace, seed, plan) the recovered
//                         run's merged stats and committed samples are
//                         identical run to run, and relate to the
//                         fault-free run by exactly the loss window;
//   (iii) accounting    — processed + shed + abandoned + lost_to_crash ==
//                         routed, under any number of crashes;
//   (iv)  fencing       — a zombie released after the run cannot alter the
//                         committed results;
//   (v)   histogram     — rtt_histogram() is exactly the histogram of the
//                         committed samples, under every rollback.
//
// Only built with -DDART_FAULT_INJECTION=ON (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"

namespace dart {
namespace {

// Same trace family as chaos_test, smaller so the single-shard scenarios
// (the ones with exact window arithmetic) stay fast.
trace::Trace recovery_workload(std::uint64_t seed) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = 300;
  config.duration = sec(3);
  return gen::build_campus(config);
}

core::DartConfig monitor_config() {
  core::DartConfig config;
  config.rt_idle_timeout = sec(2);
  return config;
}

// batch_size 32 / interval_packets 128 gives a barrier every 4th batch, so
// the kill-point arithmetic below is exact: ring order per shard is
// b1..b4, M(128), b5..b8, M(256), ...  A generous queue plus a long shed
// deadline keeps the kill scenarios shed-free (loss comes only from the
// crash window), and hang detection stays off except in the hang test.
runtime::ShardedConfig recovery_config(runtime::FaultPlan* plan) {
  runtime::ShardedConfig config;
  config.shards = 1;
  config.batch_size = 32;
  config.queue_batches = 8;
  config.checkpoint.interval_packets = 128;
  config.overload.shed_deadline_ns = sec(10);
  config.restart_budget = 3;
  config.faults = plan;
  return config;
}

struct RunResult {
  core::DartStats merged;
  core::RuntimeHealth health;
  std::vector<core::RttSample> samples;
  std::uint64_t checkpoints = 0;
};

RunResult run_supervised(const trace::Trace& trace,
                         const runtime::ShardedConfig& config) {
  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();
  runtime_check::expect_histogram_of_samples(supervisor);
  return {supervisor.merged_stats(), supervisor.health(),
          supervisor.merged_samples(), supervisor.checkpoints_cut()};
}

TEST(Recovery, KilledShardRecoversFromCheckpoint) {
  const trace::Trace trace = recovery_workload(7);
  const std::uint64_t n = trace.packets().size();
  const RunResult clean = run_supervised(trace, recovery_config(nullptr));
  ASSERT_EQ(clean.merged.packets_processed, n);
  ASSERT_EQ(clean.health.shed_packets, 0U);

  // kill after 5 batches: the worker dies popping b6 with frontier 160,
  // one batch past the barrier commit at cursor 128 — the crash window is
  // exactly that one batch.
  auto killed_run = [&trace] {
    runtime::FaultPlan plan;
    plan.kill(/*shard=*/0, /*after_batches=*/5);
    return run_supervised(trace, recovery_config(&plan));
  };
  const RunResult first = killed_run();
  const RunResult second = killed_run();

  EXPECT_EQ(first.health.workers_killed, 1U);
  EXPECT_EQ(first.health.recovered, 1U);
  EXPECT_EQ(first.health.lost_to_crash, 32U);
  EXPECT_EQ(first.health.shed_packets, 0U);
  EXPECT_EQ(first.health.abandoned_packets, 0U);
  // The parked batch the dead worker never processed (b6) is replayed to
  // the successor, plus whatever else was already sitting in the dead ring.
  EXPECT_GE(first.health.replayed_after_restore, 32U);
  EXPECT_GT(first.checkpoints, 0U);

  // Bounded loss, exactly: the recovered run is the fault-free run minus
  // the 32-packet crash window — and it is deterministic.
  EXPECT_EQ(first.merged.packets_processed, n - 32);
  EXPECT_EQ(first.merged.packets_processed,
            clean.merged.packets_processed - 32);
  EXPECT_LE(first.merged.samples, clean.merged.samples);
  EXPECT_EQ(first.merged.packets_processed, second.merged.packets_processed);
  EXPECT_EQ(first.merged.samples, second.merged.samples);
  EXPECT_EQ(first.samples, second.samples);

  // Extended accounting identity.
  EXPECT_EQ(first.merged.packets_processed + first.health.shed_packets +
                first.health.abandoned_packets + first.health.lost_to_crash,
            n);
}

TEST(Recovery, KillAtBarrierLosesNothing) {
  const trace::Trace trace = recovery_workload(8);
  const std::uint64_t n = trace.packets().size();
  const RunResult clean = run_supervised(trace, recovery_config(nullptr));

  // kill after 4 batches: the barrier marker M(128) commits first (markers
  // bypass the fault hooks — commits happen even at a kill point), then the
  // kill fires popping b5. Frontier == committed cursor == 128: the crash
  // window is empty and recovery is lossless.
  runtime::FaultPlan plan;
  plan.kill(/*shard=*/0, /*after_batches=*/4);
  const RunResult faulty = run_supervised(trace, recovery_config(&plan));

  EXPECT_EQ(faulty.health.workers_killed, 1U);
  EXPECT_EQ(faulty.health.recovered, 1U);
  EXPECT_EQ(faulty.health.lost_to_crash, 0U);
  EXPECT_EQ(faulty.health.shed_packets, 0U);
  EXPECT_EQ(faulty.health.abandoned_packets, 0U);
  EXPECT_GE(faulty.health.replayed_after_restore, 32U);

  // Not just "equal counts": the recovered run reproduces the fault-free
  // run exactly, samples included.
  EXPECT_EQ(faulty.merged.packets_processed, n);
  EXPECT_EQ(faulty.merged.samples, clean.merged.samples);
  EXPECT_EQ(faulty.samples, clean.samples);
}

TEST(Recovery, RepeatedKillsExhaustBudgetAndDegradeToShed) {
  const trace::Trace trace = recovery_workload(9);
  const std::uint64_t n = trace.packets().size();

  // Shard 0's worker dies on its very first pop, every incarnation: the
  // original plus restart_budget replacements are killed before the shard
  // retires and degrades to the shed path. Shard 1 is untouched.
  runtime::FaultPlan plan;
  plan.kill(/*shard=*/0, /*after_batches=*/0, /*times=*/1000);
  runtime::ShardedConfig config = recovery_config(&plan);
  config.shards = 2;
  config.queue_batches = 64;

  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();
  runtime_check::expect_histogram_of_samples(supervisor);

  const core::RuntimeHealth health = supervisor.health();
  const core::DartStats merged = supervisor.merged_stats();
  EXPECT_EQ(health.workers_killed, 1U + config.restart_budget);
  EXPECT_EQ(health.recovered, config.restart_budget);
  // No incarnation ever processed a packet, so every frontier sat on the
  // (empty) committed cursor: nothing was lost, everything shard 0 ever
  // received was shed with a count.
  EXPECT_EQ(health.lost_to_crash, 0U);
  EXPECT_EQ(health.abandoned_packets, 0U);
  EXPECT_GT(health.shed_packets, 0U);
  EXPECT_EQ(supervisor.shard_stats(0).packets_processed, 0U);

  // The healthy shard is unaffected: full coverage of its slice.
  EXPECT_GT(merged.samples, 0U);
  EXPECT_GT(supervisor.shard_stats(1).packets_processed, 0U);
  EXPECT_EQ(merged.packets_processed + health.shed_packets +
                health.abandoned_packets + health.lost_to_crash,
            n);
}

TEST(Recovery, HungWorkerIsReplacedAndZombieIsFencedOff) {
  const trace::Trace trace = recovery_workload(10);
  const std::uint64_t n = trace.packets().size();

  // The worker blocks popping b5, right after the barrier commit at cursor
  // 128. Its ring is unsalvageable (the zombie still owns the consumer
  // side), so the backlog is abandoned; the successor restores from the
  // 128-cut and the crash window itself is empty.
  runtime::FaultPlan plan;
  plan.hang(/*shard=*/0, /*at_batch=*/4);
  runtime::ShardedConfig config = recovery_config(&plan);
  config.queue_batches = 4;
  config.hang_detection_ns = 100'000'000;  // 100 ms

  runtime::ShardedMonitor supervisor(config, monitor_config());
  supervisor.process_all(trace.packets());
  supervisor.finish();
  runtime_check::expect_histogram_of_samples(supervisor);

  const core::RuntimeHealth health = supervisor.health();
  const core::DartStats merged = supervisor.merged_stats();
  EXPECT_EQ(health.forced_detaches, 1U);
  EXPECT_EQ(health.workers_killed, 0U);
  EXPECT_EQ(health.recovered, 1U);
  EXPECT_EQ(health.lost_to_crash, 0U);
  EXPECT_GT(health.abandoned_packets, 0U);
  EXPECT_GT(health.backpressure_events, 0U);
  EXPECT_EQ(merged.packets_processed + health.shed_packets +
                health.abandoned_packets + health.lost_to_crash,
            n);

  // Fencing: release the zombie after the run. It wakes up holding a
  // batch, processes its abandoned ring to the end, tries to commit — and
  // the coordinator rejects the stale incarnation. Nothing changes.
  const std::vector<core::RttSample> committed = supervisor.merged_samples();
  const analytics::LogHistogram committed_rtt = supervisor.rtt_histogram();
  const std::uint64_t cuts = supervisor.checkpoints_cut();
  plan.release_hangs();
  EXPECT_TRUE(supervisor.await_detached(sec(30)));
  EXPECT_EQ(supervisor.merged_samples(), committed);
  runtime_check::expect_same_histogram(supervisor.rtt_histogram(),
                                       committed_rtt);
  EXPECT_EQ(supervisor.checkpoints_cut(), cuts);
  EXPECT_EQ(supervisor.merged_stats().packets_processed,
            merged.packets_processed);
}

// The recovery paths with raw samples off: a killed worker's successor and
// a hung worker's successor restore from images whose committed histograms
// carry the distribution alone, and the run reports the kept run's
// histogram bin for bin. A zombie released afterwards changes nothing.
TEST(Recovery, DroppedSamplesSurviveKillAndHang) {
  const trace::Trace trace = recovery_workload(12);
  for (const bool hang : {false, true}) {
    SCOPED_TRACE(hang ? "hung worker" : "killed worker");
    std::unique_ptr<runtime::ShardedMonitor> runs[2];
    runtime::FaultPlan plans[2];
    for (int i = 0; i < 2; ++i) {
      runtime::ShardedConfig config = recovery_config(&plans[i]);
      if (hang) {
        plans[i].hang(/*shard=*/0, /*at_batch=*/4);
        config.queue_batches = 4;
        config.hang_detection_ns = 100'000'000;  // 100 ms
      } else {
        plans[i].kill(/*shard=*/0, /*after_batches=*/5);
      }
      config.keep_samples = i == 0;
      runs[i] = runtime_check::finished_run(config, monitor_config(),
                                            trace.packets());
    }
    const runtime::ShardedMonitor& kept = *runs[0];
    const runtime::ShardedMonitor& dropped = *runs[1];
    const core::RuntimeHealth health = dropped.health();
    EXPECT_EQ(health.recovered, 1U);
    EXPECT_EQ(hang ? health.forced_detaches : health.workers_killed, 1U);
    EXPECT_EQ(health.lost_to_crash, kept.health().lost_to_crash);
    EXPECT_EQ(health.abandoned_packets, kept.health().abandoned_packets);
    EXPECT_EQ(dropped.checkpoints_cut(), kept.checkpoints_cut());
    runtime_check::expect_samples_dropped(dropped, kept);

    const analytics::LogHistogram committed = dropped.rtt_histogram();
    for (runtime::FaultPlan& plan : plans) plan.release_hangs();
    EXPECT_TRUE(runs[0]->await_detached(sec(30)));
    EXPECT_TRUE(runs[1]->await_detached(sec(30)));
    runtime_check::expect_same_histogram(dropped.rtt_histogram(), committed);
  }
}

TEST(Recovery, NoCheckpointsMeansTheWholePrefixIsTheLossWindow) {
  const trace::Trace trace = recovery_workload(11);
  const std::uint64_t n = trace.packets().size();

  // Checkpointing disabled: recovery still works, but the replacement
  // starts from empty state and everything the dead worker processed (5
  // batches = 160 packets) is lost — the unbounded-window baseline that
  // motivates cutting checkpoints at all.
  runtime::FaultPlan plan;
  plan.kill(/*shard=*/0, /*after_batches=*/5);
  runtime::ShardedConfig config = recovery_config(&plan);
  config.checkpoint = runtime::CheckpointPolicy{};  // disabled

  const RunResult faulty = run_supervised(trace, config);
  EXPECT_EQ(faulty.checkpoints, 0U);
  EXPECT_EQ(faulty.health.workers_killed, 1U);
  EXPECT_EQ(faulty.health.recovered, 1U);
  EXPECT_EQ(faulty.health.lost_to_crash, 160U);
  EXPECT_EQ(faulty.merged.packets_processed, n - 160);
  EXPECT_EQ(faulty.merged.packets_processed + faulty.health.shed_packets +
                faulty.health.abandoned_packets +
                faulty.health.lost_to_crash,
            n);
}

}  // namespace
}  // namespace dart
