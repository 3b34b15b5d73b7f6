// Property tests for the batched worker loop: however the runtime cuts the
// packet stream into ring batches — fixed widths, random widths, ingress
// calls of any size — the monitor's observable behaviour and end-state
// snapshot must be bit-identical to the scalar reference. Also covers the
// runtime hazards batching could introduce — a batch split straddling a
// checkpoint epoch barrier, a forced-shed window (fault-injected worker
// kill), and the partial-final-batch flush at shutdown, the mirror of the
// MinFilter partial-tail bug class — by holding each shard to a scalar
// replay of its own stream. Digest pins fix the monitor's end state on
// platform-independent streams, so a change to the one monitor loop cannot
// drift unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"

#if defined(DART_FAULT_INJECTION)
#include "runtime/fault_injection.hpp"
#endif

namespace dart {
namespace {

using runtime_check::garbage;

core::DartConfig stress_config() {
  core::DartConfig config;
  config.rt_size = 1 << 8;
  config.pt_size = 1 << 8;
  config.pt_stages = 4;
  config.max_recirculations = 4;
  config.include_syn = true;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = msec(500);
  config.shadow_rt = true;
  config.shadow_sync_interval = 64;
  return config;
}

// stress_config() with non-power-of-two RT and PT stage sizes, so SlotHash
// reduces with `%` instead of a mask.
core::DartConfig odd_geometry_config() {
  core::DartConfig config = stress_config();
  config.rt_size = 1000;
  config.pt_size = 3000;
  config.pt_stages = 3;
  return config;
}

core::DartConfig unbounded_config() {
  core::DartConfig config;
  config.include_syn = true;
  config.leg = core::LegMode::kBoth;
  return config;
}

class BatchFuzz : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, BatchFuzz,
                         ::testing::Values(1u, 42u, 0xF00Du));

TEST_P(BatchFuzz, FixedBatchWidthsNeverChangeOutput) {
  // Garbage streams rarely produce RTT samples (random 64-bit seq/ack
  // almost never pair up) — the property under test is end-state and
  // sample-stream *equality*, not sample yield; the differential suite's
  // realistic workloads cover yield.
  const auto packets = garbage(GetParam(), 30000);
  const auto reference = runtime_check::scalar_run(stress_config(), packets);

  // Ring-batch widths: 1 and 2 are the degenerate batches; 7 never divides
  // anything; 64 is the shadow sync interval (batches straddle shadow
  // flushes); the runtime's default; 1000 leaves a ragged partial final
  // batch.
  for (const std::size_t width :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{64},
        runtime::ShardedConfig{}.batch_size, std::size_t{1000}}) {
    runtime::ShardedConfig config;
    config.batch_size = width;
    runtime_check::expect_same_run(
        reference, runtime_check::worker_run(stress_config(), packets, config),
        "width " + std::to_string(width));
  }
}

TEST_P(BatchFuzz, RandomMidFlowSplitsNeverChangeOutput) {
  const auto packets = garbage(GetParam() ^ 0xBA7C4, 30000);
  const auto reference = runtime_check::scalar_run(stress_config(), packets);

  Rng rng(GetParam() * 0x9E3779B9u + 7);
  for (int round = 0; round < 4; ++round) {
    // A random ring-batch width: with a 16-host tuple pool, essentially
    // every batch boundary lands mid-flow for many flows at once.
    runtime::ShardedConfig config;
    config.batch_size = static_cast<std::size_t>(rng.uniform_int(1, 700));
    runtime_check::expect_same_run(
        reference, runtime_check::worker_run(stress_config(), packets, config),
        "round " + std::to_string(round) + " width " +
            std::to_string(config.batch_size));
  }
}

TEST_P(BatchFuzz, InterleavedScalarAndBatchedCallsMatch) {
  const auto packets = garbage(GetParam() ^ 0x17E4, 20000);
  const auto reference = runtime_check::scalar_run(stress_config(), packets);

  // Random per-packet and span ingress calls: the router carries its
  // pending ring batch across both kinds.
  Rng rng(GetParam() + 99);
  const auto interleaved = [&rng](runtime::ShardedMonitor& sharded,
                                  std::span<const PacketRecord> all) {
    std::size_t at = 0;
    while (at < all.size()) {
      if (rng.bernoulli(0.3)) {
        sharded.process(all[at]);
        ++at;
      } else {
        const std::size_t run_len =
            std::min(all.size() - at,
                     static_cast<std::size_t>(rng.uniform_int(1, 500)));
        sharded.process_all(all.subspan(at, run_len));
        at += run_len;
      }
    }
  };
  runtime::ShardedConfig config;
  config.batch_size = 64;
  runtime_check::expect_same_run(
      reference,
      runtime_check::worker_run(stress_config(), packets, config, interleaved),
      "interleaved");
}

// Regression for the partial-tail bug class: a final ring batch smaller
// than batch_size (router pending buffer drained at finish()) must be
// flushed into the workers, not dropped. With per-flow state the merged
// run must reproduce the single-monitor reference exactly, packet counts
// included.
TEST_P(BatchFuzz, PartialFinalBatchIsFlushedNotDropped) {
  // 10007 is prime: never a multiple of any batch_size, so the run always
  // ends on a ragged partial batch.
  const auto packets = garbage(GetParam() ^ 0x9A11, 10007);
  const core::DartConfig dart_config = unbounded_config();  // exact

  const std::vector<core::RttSample> reference =
      runtime_check::single_monitor_samples(dart_config, packets);

  runtime::ShardedConfig config;
  config.shards = 3;
  config.batch_size = 64;
  const auto refs =
      runtime_check::per_shard_reference(dart_config, packets, config);
  runtime::ShardedMonitor sharded(config, dart_config);
  sharded.process_all(packets);
  sharded.finish();

  EXPECT_EQ(sharded.merged_stats().packets_processed, packets.size())
      << "the partial final batch was not flushed";
  EXPECT_EQ(sharded.health().shed_packets, 0U);
  EXPECT_EQ(sharded.merged_samples(), reference);
  for (std::uint32_t i = 0; i < config.shards; ++i) {
    runtime_check::expect_shard_matches(sharded, i, refs[i], "partial tail");
  }
}

// A batch split straddling a checkpoint epoch barrier: the runtime
// interleaves barrier markers between ring batches, so with a batch width
// that never divides the barrier interval, every epoch boundary lands
// mid-batch-stream. Each shard must still match a scalar replay of its
// stream, and cut exactly one checkpoint per full interval it received.
TEST_P(BatchFuzz, BarrierStraddlingBatchesMatchAcrossWorkerModes) {
  const auto packets = garbage(GetParam() ^ 0xEB0C, 20000);
  const core::DartConfig dart_config = unbounded_config();

  runtime::ShardedConfig config;
  config.shards = 2;
  config.batch_size = 7;  // never divides the barrier interval
  config.checkpoint.interval_packets = 1000;
  const auto refs =
      runtime_check::per_shard_reference(dart_config, packets, config);
  runtime::ShardedMonitor sharded(config, dart_config);
  sharded.process_all(packets);
  sharded.finish();

  std::uint64_t expected_cuts = 0;
  for (std::uint32_t i = 0; i < config.shards; ++i) {
    runtime_check::expect_shard_matches(sharded, i, refs[i], "barriers");
    expected_cuts += refs[i].packets.size() / 1000;
  }
  EXPECT_GT(sharded.checkpoints_cut(), 0U);
  EXPECT_EQ(sharded.checkpoints_cut(), expected_cuts);
  const core::RuntimeHealth health = sharded.health();
  EXPECT_EQ(health.shed_packets, 0U);
  EXPECT_EQ(health.abandoned_packets, 0U);
  EXPECT_EQ(health.lost_to_crash, 0U);
  runtime_check::expect_histogram_of_samples(sharded);
}

#if defined(DART_FAULT_INJECTION)
// A forced-shed window: kill one worker mid-run so the router sheds the
// remainder of its shard's stream. The packets processed before the kill
// are a deterministic prefix (the fault fires on the worker's batch
// clock), so the killed shard must match a scalar replay of exactly that
// prefix, the healthy shard its whole stream, and shed absorbs exactly
// the rest.
TEST_P(BatchFuzz, ForcedShedWindowMatchesAcrossWorkerModes) {
  const auto packets = garbage(GetParam() ^ 0x5EED, 20000);
  const core::DartConfig dart_config = unbounded_config();

  constexpr std::uint64_t kPrefix = 3 * 16;
  runtime::FaultPlan faults;
  faults.kill(0, 3);  // shard 0 dies after exactly 3 batches
  runtime::ShardedConfig config;
  config.shards = 2;
  config.batch_size = 16;
  config.faults = &faults;
  runtime::ShardedMonitor sharded(config, dart_config);
  sharded.process_all(packets);
  sharded.finish();

  const auto refs = runtime_check::per_shard_reference(
      dart_config, packets, config, /*limit=*/{kPrefix});
  EXPECT_EQ(sharded.shard_stats(0).packets_processed, kPrefix);
  for (std::uint32_t i = 0; i < config.shards; ++i) {
    runtime_check::expect_shard_matches(sharded, i, refs[i], "forced shed");
  }
  // The shed window is real, and it is exactly the killed shard's
  // unprocessed remainder.
  const core::RuntimeHealth health = sharded.health();
  EXPECT_GT(health.shed_packets, 0U);
  EXPECT_EQ(health.shed_packets, refs[0].packets.size() - kPrefix);
  EXPECT_EQ(health.workers_killed, 1U);
  EXPECT_EQ(sharded.merged_stats().packets_processed + health.shed_packets,
            packets.size());
}
#endif  // DART_FAULT_INJECTION

// ---------------------------------------------------------------------------
// End-state digest pins. Each digest was recorded from the monitor as it
// stood before its prefetching batch loop was removed. The generators make
// no libm call (build_campus's RTTs pass through std::exp), so the inputs
// are the same bytes on every platform. A change to DartMonitor that moves
// any table slot, any counter or any sample shows up here.

// FNV-1a-64: a fixed hash, independent of the standard library's.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Digest {
  std::uint64_t image;  ///< fnv1a64 of snapshot(SnapshotMeta{}) bytes
  std::uint64_t samples;
  std::uint64_t pt_evictions;
  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Digest& digest) {
  return out << "{0x" << std::hex << digest.image << std::dec << ", "
             << digest.samples << ", " << digest.pt_evictions << "}";
}

Digest digest_of(const core::DartConfig& config,
                 std::span<const PacketRecord> packets) {
  core::DartMonitor monitor(config);
  monitor.process_all(packets);
  return {fnv1a64(monitor.snapshot(core::SnapshotMeta{}).bytes),
          monitor.stats().samples, monitor.stats().pt_evictions};
}

struct DigestPin {
  const char* config_name;
  core::DartConfig config;
  Digest want;
};

void expect_pins(std::span<const PacketRecord> packets,
                 const std::vector<DigestPin>& pins) {
  for (const DigestPin& pin : pins) {
    EXPECT_EQ(digest_of(pin.config, packets), pin.want) << pin.config_name;
  }
}

TEST_P(BatchFuzz, GarbageDigestsMatchTheRecordedPins) {
  struct SeedPins {
    std::uint64_t seed;
    Digest stress, odd, unbounded;
  };
  const SeedPins recorded[] = {
      {1,
       {0x33964d7e8dc70f62, 0, 55869},
       {0x832d67e8043e2fcd, 0, 43939},
       {0x75807cc3ae931d18, 0, 0}},
      {42,
       {0xda86b28e9c160b96, 0, 55481},
       {0xafc7c076f51e9015, 0, 43951},
       {0x021e9a352b5b3de8, 0, 0}},
      {0xF00D,
       {0xbc6b852ccddc8bcd, 0, 55434},
       {0xae871e6c837c2e10, 0, 44087},
       {0xc52b239b9a18f68f, 0, 0}},
  };
  const auto packets = garbage(GetParam(), 30000);
  for (const SeedPins& pins : recorded) {
    if (pins.seed != GetParam()) continue;
    expect_pins(packets, {{"stress", stress_config(), pins.stress},
                          {"odd", odd_geometry_config(), pins.odd},
                          {"unbounded", unbounded_config(), pins.unbounded}});
    return;
  }
  FAIL() << "no digest recorded for seed " << GetParam();
}

// Integer-only traffic that does yield samples: eight flows send 100-byte
// segments, sometimes repeating the last one (a retransmission), and the
// receiver ACKs up to two segments ahead of its cumulative edge, so most
// ACKs land exactly on a tracked expected ACK. Odd flows send inbound, so
// both legs see data and dual-role packets.
std::vector<PacketRecord> sampling_stream(std::uint64_t seed,
                                          std::size_t count) {
  constexpr std::uint32_t kFlows = 8;
  constexpr SeqNum kSegment = 100;
  Rng rng(seed);
  std::array<SeqNum, kFlows> next{};
  std::array<SeqNum, kFlows> acked{};
  std::vector<PacketRecord> packets;
  packets.reserve(count);
  Timestamp ts = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto flow = static_cast<std::uint32_t>(rng.uniform_int(0, kFlows - 1));
    PacketRecord p;
    ts += rng.uniform_int(1, 20000);
    p.ts = ts;
    p.tuple.src_ip = Ipv4Addr{0x0A080000U | flow};
    p.tuple.dst_ip = Ipv4Addr{0x17340001U};
    p.tuple.src_port = static_cast<std::uint16_t>(40000 + flow);
    p.tuple.dst_port = 443;
    p.outbound = (flow & 1) == 0;
    const std::uint64_t kind = rng.uniform_int(0, 9);
    if (kind < 5) {
      // Data from the flow's sender, piggybacking an ACK of nothing new.
      const bool retransmit = kind == 0 && next[flow] != acked[flow];
      p.seq = retransmit ? next[flow] - kSegment : next[flow];
      p.ack = 1;
      p.payload = kSegment;
      p.flags = tcp_flag::kPsh | tcp_flag::kAck;
      if (!retransmit) next[flow] += kSegment;
    } else {
      // A pure ACK from the receiver, within what was sent.
      p.tuple = p.tuple.reversed();
      p.outbound = !p.outbound;
      const SeqNum ahead =
          kSegment * static_cast<SeqNum>(rng.uniform_int(0, 2));
      const SeqNum ack = acked[flow] + ahead;
      acked[flow] = seq_gt(ack, next[flow]) ? next[flow] : ack;
      p.seq = 1;
      p.ack = acked[flow];
      p.payload = 0;
      p.flags = tcp_flag::kAck;
    }
    packets.push_back(p);
  }
  return packets;
}

TEST(MonitorDigest, SampleStreamDigestsMatchTheRecordedPins) {
  const auto packets = sampling_stream(0xDA27, 30000);
  expect_pins(packets,
              {{"stress", stress_config(), {0x4eb57637b29614b7, 1896, 11137}},
               {"odd", odd_geometry_config(), {0xb043c2ab0eff272c, 2055, 7442}},
               {"unbounded", unbounded_config(), {0x7f4254bb99816a66, 2066, 0}}});
}

}  // namespace
}  // namespace dart
