// Parking suite: the wake-on-progress handoff between the router and the
// shard workers (runtime/parker.hpp).
//
//   * No lost wakeup: a worker parks on an empty ring with no deadline, so
//     a push whose wake-up went missing would leave its packet unprocessed
//     for good. Single-packet process_all() calls, spaced by random gaps
//     that land in every phase of the worker's spin-then-park, must each be
//     processed before the next call is made. The Parker itself is held to
//     the same rule with no spin at all, so every wake-up races a waiter
//     that is registering or already asleep.
//   * Idle costs nothing: parked workers burn no CPU.
//   * Parked is not hung: hang detection must not mistake a worker woken
//     from a long park for a wedged one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "gen/workload.hpp"
#include "runtime/parker.hpp"
#include "runtime/replay_monitor.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"

namespace dart {
namespace {

using Clock = std::chrono::steady_clock;

/// Counts the packets its worker processed where the test thread can read
/// the count while the worker runs.
class CountingMonitor : public runtime::ReplayMonitor {
 public:
  explicit CountingMonitor(std::atomic<std::uint64_t>* processed)
      : processed_(processed) {}

  void process(const PacketRecord&) override {
    processed_->fetch_add(1, std::memory_order_release);
  }
  core::DartStats stats() const override {
    core::DartStats stats;
    stats.packets_processed = processed_->load(std::memory_order_acquire);
    return stats;
  }

 private:
  std::atomic<std::uint64_t>* processed_;
};

/// Waits `ns`: busy below the timer slack a sleep would add, so short gaps
/// are as short as drawn.
void pause_for(std::uint64_t ns) {
  if (ns >= 100'000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  const auto until = Clock::now() + std::chrono::nanoseconds(ns);
  while (Clock::now() < until) {
  }
}

/// Whether `processed` reached `target` within `timeout`.
bool await_count(const std::atomic<std::uint64_t>& processed,
                 std::uint64_t target, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (processed.load(std::memory_order_acquire) < target) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

TEST(Parking, ParkerNeverLosesAWakeup) {
  constexpr std::uint64_t kRounds = 100'000;
  runtime::Parker parker;
  std::atomic<std::uint64_t> posted{0};
  std::atomic<std::uint64_t> taken{0};
  std::uint64_t lost = 0;
  std::thread waiter([&] {
    for (std::uint64_t i = 1; i <= kRounds; ++i) {
      // A missed notify() leaves the waiter asleep until the deadline; the
      // wait's last test then passes, so the clock tells the two apart.
      const auto deadline = Clock::now() + std::chrono::seconds(2);
      parker.wait_until(
          [&] { return posted.load(std::memory_order_acquire) >= i; },
          runtime::Parker::Clock::duration::zero(), deadline);
      if (Clock::now() >= deadline) {
        ++lost;
        break;
      }
      taken.store(i, std::memory_order_release);
    }
  });
  Rng rng(0x9A4B);
  for (std::uint64_t i = 1; i <= kRounds; ++i) {
    posted.store(i, std::memory_order_release);
    parker.notify();
    if (!await_count(taken, i, std::chrono::seconds(6))) break;
    // 0-30 us: the next notify() lands while the waiter re-registers,
    // re-tests or sleeps.
    pause_for(rng.uniform_int(0, 30'000));
  }
  waiter.join();
  EXPECT_EQ(lost, 0U);
  EXPECT_EQ(taken.load(), kRounds);
}

TEST(Parking, SinglePacketCallsNeverLoseAWakeup) {
  // 2 monitors side by side, 50,000 calls each: 10^5 single-packet
  // handoffs. A ring of 2 batches also parks the router whenever its
  // worker lags a call behind. Gaps of 0-300 us land in the worker's
  // spin; one call in 16 first waits for the rest of kWorkerSpin less
  // 150 us, so the packet arrives as the worker stops spinning, parks, or
  // sleeps.
  constexpr int kMonitors = 2;
  constexpr std::uint64_t kCalls = 50'000;
  std::vector<std::thread> routers;
  std::vector<int> failures(kMonitors, 0);
  for (int m = 0; m < kMonitors; ++m) {
    routers.emplace_back([m, &failures] {
      std::atomic<std::uint64_t> processed{0};
      runtime::ShardedConfig config;
      config.queue_batches = 2;
      runtime::ShardedMonitor sharded(
          config, [&processed](std::uint32_t, core::SampleCallback) {
            return std::make_unique<CountingMonitor>(&processed);
          });
      const std::vector<PacketRecord> packets =
          runtime_check::garbage(static_cast<std::uint64_t>(m), kCalls);
      Rng rng(0x9A4C + static_cast<std::uint64_t>(m));
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        sharded.process_all(std::span(&packets[i], 1));
        const std::uint64_t to_spin_end =
            rng.uniform_int(0, 15) == 0
                ? static_cast<std::uint64_t>(
                      std::chrono::nanoseconds(runtime::kWorkerSpin).count()) -
                      150'000
                : 0;
        pause_for(to_spin_end + rng.uniform_int(0, 300'000));
        // The worker was notified by the push above; one that missed the
        // wake-up stays parked and never gets here.
        if (!await_count(processed, i + 1, std::chrono::seconds(5))) {
          ++failures[m];
          break;
        }
      }
      sharded.finish();
      const core::DartStats merged = sharded.merged_stats();
      const core::RuntimeHealth health = sharded.health();
      if (merged.packets_processed != kCalls ||
          sharded.routed_total() != kCalls || health.shed_packets != 0 ||
          health.abandoned_packets != 0 || health.lost_to_crash != 0) {
        ++failures[m];
      }
    });
  }
  for (std::thread& router : routers) router.join();
  for (int m = 0; m < kMonitors; ++m) {
    EXPECT_EQ(failures[m], 0) << "monitor " << m
                              << " lost a wake-up or a packet";
  }
}

TEST(Parking, IdleShardsBurnNoCpu) {
  runtime::ShardedConfig config;
  config.shards = 2;
  runtime::ShardedMonitor sharded(config, core::DartConfig{});
  // Give both workers time to spin out and park before the clock starts.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double cpu_start = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double idle_cpu = process_cpu_ms() - cpu_start;
  sharded.finish();
  // Two spinning workers would burn ~400 ms here.
  EXPECT_LT(idle_cpu, 20.0) << "idle workers burned " << idle_cpu << " ms";
}

TEST(Parking, ParkedWorkerIsNotHung) {
  gen::CampusConfig campus;
  campus.seed = 5;
  campus.connections = 800;
  campus.duration = sec(5);
  const trace::Trace trace = gen::build_campus(campus);
  const std::vector<PacketRecord>& packets = trace.packets();

  runtime::ShardedConfig config;
  config.batch_size = 64;
  config.queue_batches = 4;  // a ring of 256 packets: each burst fills it
  config.hang_detection_ns = 1'000'000;  // 1 ms
  runtime::ShardedMonitor sharded(config, core::DartConfig{});
  // Each burst arrives after its worker has sat parked for 50 ms; the
  // heartbeat it left behind must not read as a 50 ms hang.
  constexpr std::size_t kBursts = 3;
  const std::size_t burst = packets.size() / kBursts;
  for (std::size_t b = 0; b < kBursts; ++b) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::size_t end = b + 1 == kBursts ? packets.size() : (b + 1) * burst;
    sharded.process_all(
        std::span(packets).subspan(b * burst, end - b * burst));
  }
  sharded.finish();
  const core::RuntimeHealth health = sharded.health();
  // The bursts must have backpressured the router, or hang detection
  // never looked at the heartbeat.
  EXPECT_GT(health.backpressure_events, 0U);
  EXPECT_EQ(health.forced_detaches, 0U);
  EXPECT_EQ(health.abandoned_packets, 0U);
  EXPECT_EQ(sharded.merged_stats().packets_processed, packets.size());
}

}  // namespace
}  // namespace dart
