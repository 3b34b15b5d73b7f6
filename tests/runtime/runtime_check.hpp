// Shared inputs and oracles for the sharded-runtime suites.
//
//   * garbage(): the fuzz_test generator's distribution — uniformly random
//     packets over a tiny tuple pool, so table collisions, retransmission
//     edges, duplicate ACKs, and wraparounds all fire constantly.
//   * Single-monitor reference: one scalar DartMonitor over the whole
//     trace, samples in canonical order — what merged_samples() equals
//     whenever monitor state is per-flow.
//   * Per-shard scalar reference: split a trace exactly as the runtime's
//     router does (ShardRouter with the run's shard count and route seed)
//     and feed each shard's subsequence, one packet at a time, to a scalar
//     DartMonitor::process. A finished run's shard_stats(i) and
//     shard_samples(i) must equal it — the batched worker loop, barrier
//     commits and recovery bookkeeping may change nothing a monitor sees.
//   * Histogram check: rtt_histogram() must equal a LogHistogram filled
//     from merged_samples() — same bins, count, min and max.
//   * Worker loops: factories whose shards run each ring batch through
//     DartMonitor::process_batch as shipped, or through the prefetched
//     wavefront whatever the table size, so the sharded suites cover both
//     at test sizes (where process_batch picks the scalar loop).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analytics/histogram.hpp"
#include "common/random.hpp"
#include "core/dart_monitor.hpp"
#include "runtime/replay_monitor.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/sharded_monitor.hpp"

namespace dart::runtime_check {

inline std::vector<PacketRecord> garbage(std::uint64_t seed,
                                         std::size_t count) {
  Rng rng(seed);
  std::vector<PacketRecord> packets;
  packets.reserve(count);
  Timestamp ts = 0;
  for (std::size_t i = 0; i < count; ++i) {
    PacketRecord p;
    ts += rng.uniform_int(0, 100000);
    p.ts = ts;
    p.tuple.src_ip = Ipv4Addr{static_cast<std::uint32_t>(
        rng.uniform_int(0, 15) | 0x0A080000)};
    p.tuple.dst_ip = Ipv4Addr{static_cast<std::uint32_t>(
        rng.uniform_int(0, 15) | 0x17340000)};
    p.tuple.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 7));
    p.tuple.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 7));
    p.seq = static_cast<SeqNum>(rng.next_u64());
    p.ack = static_cast<SeqNum>(rng.next_u64());
    p.payload = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    p.flags = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    p.outbound = rng.bernoulli(0.5);
    packets.push_back(p);
  }
  return packets;
}

class PrefetchedReplayMonitor : public runtime::DartReplayMonitor {
 public:
  using DartReplayMonitor::DartReplayMonitor;
  void process_batch(std::span<const PacketRecord> packets) override {
    monitor().process_prefetched(packets);
  }
};

struct WorkerLoop {
  const char* name;
  runtime::MonitorFactory factory;
};

inline std::vector<WorkerLoop> worker_loops(const core::DartConfig& config) {
  return {
      {"process_batch", runtime::dart_factory(config)},
      {"process_prefetched",
       [config](std::uint32_t /*shard*/, core::SampleCallback on_sample) {
         return std::make_unique<PrefetchedReplayMonitor>(
             config, std::move(on_sample));
       }},
  };
}

inline std::vector<core::RttSample> single_monitor_samples(
    const core::DartConfig& config, std::span<const PacketRecord> packets) {
  std::vector<core::RttSample> samples;
  core::DartMonitor monitor(config, [&samples](const core::RttSample& s) {
    samples.push_back(s);
  });
  monitor.process_all(packets);
  runtime::deterministic_order(samples);
  return samples;
}

struct ShardReference {
  std::vector<PacketRecord> packets;  ///< the shard's routed stream
  std::vector<core::RttSample> samples;
  core::DartStats stats;
};

/// Scalar reference per shard; `limit[i]` (if given) truncates shard i's
/// replay to its first limit[i] packets — the processed prefix of a shard
/// whose worker died.
inline std::vector<ShardReference> per_shard_reference(
    const core::DartConfig& config, std::span<const PacketRecord> packets,
    const runtime::ShardedConfig& sharded,
    const std::vector<std::uint64_t>& limit = {}) {
  const runtime::ShardRouter router(sharded.shards, sharded.route_seed);
  std::vector<ShardReference> refs(sharded.shards);
  for (const PacketRecord& packet : packets) {
    refs[router.route(packet.tuple)].packets.push_back(packet);
  }
  for (std::uint32_t i = 0; i < sharded.shards; ++i) {
    ShardReference& ref = refs[i];
    core::DartMonitor monitor(config, [&ref](const core::RttSample& sample) {
      ref.samples.push_back(sample);
    });
    const std::size_t n =
        i < limit.size() ? static_cast<std::size_t>(limit[i])
                         : ref.packets.size();
    for (std::size_t at = 0; at < n && at < ref.packets.size(); ++at) {
      monitor.process(ref.packets[at]);
    }
    ref.stats = monitor.stats();
  }
  return refs;
}

/// Shard `i` of a finished run equals its reference: every monitor counter
/// (RuntimeHealth is the runtime's, not the monitor's, and is checked by
/// the caller) and the sample stream in emission order.
inline void expect_shard_matches(const runtime::ShardedMonitor& sharded,
                                 std::uint32_t i, const ShardReference& ref,
                                 const std::string& label) {
  core::DartStats got = sharded.shard_stats(i);
  got.runtime = core::RuntimeHealth{};
  EXPECT_EQ(got, ref.stats) << label << ": shard " << i << " stats diverged";
  EXPECT_EQ(sharded.shard_samples(i).samples(), ref.samples)
      << label << ": shard " << i << " samples diverged";
}

inline analytics::LogHistogram histogram_of(
    const std::vector<core::RttSample>& samples) {
  analytics::LogHistogram hist;
  for (const core::RttSample& sample : samples) hist.add(sample.rtt());
  return hist;
}

inline void expect_same_histogram(const analytics::LogHistogram& got,
                                  const analytics::LogHistogram& want) {
  EXPECT_TRUE(got.same_layout(want));
  EXPECT_EQ(got.bins(), want.bins());
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
}

/// rtt_histogram() is the histogram of merged_samples().
inline void expect_histogram_of_samples(
    const runtime::ShardedMonitor& sharded) {
  expect_same_histogram(sharded.rtt_histogram(),
                        histogram_of(sharded.merged_samples()));
}

}  // namespace dart::runtime_check
