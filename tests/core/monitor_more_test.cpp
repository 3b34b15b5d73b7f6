// Additional core coverage: stats reporting, bounded-RT takeovers, the
// PacketTracker exclusion mechanics, and feature interplay.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <iterator>
#include <set>

#include "core/dart_monitor.hpp"
#include "core/packet_tracker.hpp"

namespace dart::core {
namespace {

const FourTuple kFlow{Ipv4Addr{10, 8, 0, 5}, Ipv4Addr{93, 184, 216, 34},
                      40000, 443};

PacketRecord data(Timestamp ts, SeqNum seq, std::uint16_t len,
                  const FourTuple& tuple = kFlow) {
  PacketRecord p;
  p.ts = ts;
  p.tuple = tuple;
  p.seq = seq;
  p.payload = len;
  p.flags = tcp_flag::kAck;
  p.outbound = true;
  return p;
}

PacketRecord pure_ack(Timestamp ts, SeqNum ack,
                      const FourTuple& tuple = kFlow) {
  PacketRecord p;
  p.ts = ts;
  p.tuple = tuple.reversed();
  p.ack = ack;
  p.flags = tcp_flag::kAck;
  p.outbound = false;
  return p;
}

TEST(DartStatsSummary, MentionsKeyCounters) {
  DartMonitor dart(DartConfig{});
  dart.process(data(usec(0), 1000, 100));
  dart.process(pure_ack(usec(50), 1100));
  const std::string text = dart.stats().summary();
  EXPECT_NE(text.find("packets=2"), std::string::npos);
  EXPECT_NE(text.find("samples=1"), std::string::npos);
  EXPECT_NE(text.find("recirc/pkt="), std::string::npos);
  EXPECT_NE(text.find("drops("), std::string::npos);
}

// Counters numbered base, base + 1, ... in table order, written through the
// field tables only.
DartStats numbered(std::uint64_t base) {
  DartStats stats;
  std::uint64_t next = base;
  for (const auto& field : kStatFields) stats.*field.member = next++;
  for (const auto& field : kHealthFields) stats.runtime.*field.member = next++;
  return stats;
}

using StatWords =
    std::array<std::uint64_t, sizeof(DartStats) / sizeof(std::uint64_t)>;

StatWords words_of(const DartStats& stats) {
  StatWords words;
  std::memcpy(words.data(), &stats, sizeof(stats));
  return words;
}

TEST(DartStats, SumIsFieldWise) {
  const DartStats a = numbered(1);
  const DartStats b = numbered(1000);
  // The words hold exactly 1..N: the tables name each counter once, so
  // none is left at zero and none is written twice.
  const StatWords wa = words_of(a);
  const std::set<std::uint64_t> values(wa.begin(), wa.end());
  EXPECT_EQ(wa.size(), std::size(kStatFields) + std::size(kHealthFields));
  EXPECT_EQ(values.size(), wa.size());
  EXPECT_EQ(*values.begin(), 1U);
  EXPECT_EQ(*values.rbegin(), wa.size());

  const StatWords wb = words_of(b);
  const StatWords sum = words_of(a + b);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    EXPECT_EQ(sum[i], wa[i] + wb[i]) << "word " << i;
  }
  DartStats merged = a;
  merged.merge(b);
  EXPECT_EQ(merged, a + b);
  EXPECT_EQ(a.runtime + b.runtime, (a + b).runtime);
}

TEST(DartMonitorBoundedRt, SlotTakeoverCountsAndDropsOldFlow) {
  DartConfig config;
  config.rt_size = 1;  // every flow shares the single slot
  config.pt_size = 1 << 6;
  VectorSink sink;
  DartMonitor dart(config, sink.callback());

  FourTuple other = kFlow;
  other.src_port = 40001;
  dart.process(data(usec(0), 1000, 100));           // flow A owns the slot
  dart.process(data(usec(10), 5000, 100, other));   // flow B takes it over
  EXPECT_EQ(dart.stats().rt_flow_overwrites, 1U);

  // Flow A's ACK now finds flow B's entry (signature mismatch): no entry.
  dart.process(pure_ack(usec(200), 1100));
  EXPECT_EQ(dart.stats().ack_no_entry, 1U);
  // Flow B still works.
  dart.process(pure_ack(usec(210), 5100, other));
  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].tuple, other);
}

TEST(PacketTrackerExclusion, AvoidsEvictingTheExcludedKey) {
  // 2 stages x 1 slot: a key's two candidate slots are slot 0 of each
  // stage, shared by all keys.
  PacketTracker pt{2, 2, EvictionPolicy::kEvictYoungest, 7};
  PacketTracker::Record a;
  a.flow_sig = 1;
  a.eack = 10;
  a.ts = 100;
  PacketTracker::Record b;
  b.flow_sig = 2;
  b.eack = 20;
  b.ts = 200;  // youngest occupant
  ASSERT_EQ(pt.insert(a).status, PacketTracker::InsertStatus::kStored);
  ASSERT_EQ(pt.insert(b).status, PacketTracker::InsertStatus::kStored);

  PacketTracker::Record c;
  c.flow_sig = 3;
  c.eack = 30;
  c.ts = 300;
  // Without exclusion the youngest (b) would be evicted; excluding b's key
  // forces the older a out instead.
  const auto result = pt.insert(c, /*exclude_key=*/b.key());
  ASSERT_EQ(result.status, PacketTracker::InsertStatus::kEvicted);
  EXPECT_EQ(result.evicted.key(), a.key());
}

TEST(PacketTrackerExclusion, FallsBackWhenOnlyExcludedRemains) {
  PacketTracker pt{1, 1, EvictionPolicy::kEvictYoungest, 7};
  PacketTracker::Record a;
  a.flow_sig = 1;
  a.eack = 10;
  a.ts = 100;
  pt.insert(a);
  PacketTracker::Record b;
  b.flow_sig = 2;
  b.eack = 20;
  b.ts = 200;
  // a's key is excluded but occupies the only candidate slot: last resort.
  const auto result = pt.insert(b, a.key());
  ASSERT_EQ(result.status, PacketTracker::InsertStatus::kEvicted);
  EXPECT_EQ(result.evicted.key(), a.key());
}

TEST(DartMonitorInterplay, FlowFilterAndShadowRtCompose) {
  DartConfig config;
  config.rt_size = 1 << 8;
  config.pt_size = 1 << 6;
  config.shadow_rt = true;
  config.shadow_sync_interval = 4;

  FlowFilter filter;
  FlowRule rule;
  rule.dst_port = PortRange::exactly(443);
  filter.add_rule(rule);

  VectorSink sink;
  DartMonitor dart(config, sink.callback());
  dart.set_flow_filter(&filter);

  FourTuple ssh = kFlow;
  ssh.dst_port = 22;
  dart.process(data(usec(0), 1000, 100));
  dart.process(data(usec(1), 1000, 100, ssh));  // filtered
  dart.process(pure_ack(usec(50), 1100));
  dart.process(pure_ack(usec(51), 1100, ssh));  // filtered

  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(dart.stats().filtered_packets, 2U);
}

TEST(DartMonitorConfig, AccessorsExposeConfiguration) {
  DartConfig config;
  config.rt_size = 128;
  config.pt_size = 64;
  config.pt_stages = 4;
  DartMonitor dart(config);
  EXPECT_EQ(dart.config().rt_size, 128U);
  EXPECT_EQ(dart.packet_tracker().capacity(), 64U);
  EXPECT_EQ(dart.packet_tracker().stage_count(), 4U);
  EXPECT_EQ(dart.range_tracker().capacity(), 128U);
}

TEST(DartMonitorCollapseEvents, CarryCauseAndTuple) {
  DartMonitor dart{DartConfig{}};
  std::vector<CollapseEvent> events;
  dart.set_collapse_callback(
      [&events](const CollapseEvent& e) { events.push_back(e); });

  dart.process(data(usec(0), 1000, 100));
  dart.process(data(usec(10), 1000, 100));   // rtx collapse
  dart.process(data(usec(20), 1100, 100));   // resume
  dart.process(pure_ack(usec(30), 1200));    // advance
  dart.process(pure_ack(usec(40), 1200));    // dup-ack collapse

  ASSERT_EQ(events.size(), 2U);
  EXPECT_TRUE(events[0].from_retransmission);
  EXPECT_EQ(events[0].ts, usec(10));
  EXPECT_FALSE(events[1].from_retransmission);
  EXPECT_EQ(events[1].tuple, kFlow);
}

TEST(DartMonitorOptimisticAcks, AreDetectedAndReported) {
  DartMonitor dart{DartConfig{}};
  std::vector<OptimisticAckEvent> events;
  dart.set_optimistic_ack_callback(
      [&events](const OptimisticAckEvent& e) { events.push_back(e); });

  dart.process(data(usec(0), 1000, 100));      // range [1000, 1100]
  dart.process(pure_ack(usec(10), 9999));      // beyond the right edge
  dart.process(pure_ack(usec(20), 1100));      // honest ACK still samples

  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].ack, 9999U);
  EXPECT_EQ(events[0].tuple, kFlow);
  EXPECT_EQ(events[0].ts, usec(10));
  EXPECT_EQ(dart.stats().samples, 1U);
}

}  // namespace
}  // namespace dart::core
