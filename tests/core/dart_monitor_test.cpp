// End-to-end Dart pipeline behaviour on hand-crafted packet sequences.
#include "core/dart_monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

#include "baseline/tcptrace_const.hpp"
#include "gen/workload.hpp"

namespace dart::core {
namespace {

const FourTuple kFlow{Ipv4Addr{10, 8, 0, 5}, Ipv4Addr{93, 184, 216, 34},
                      40000, 443};

PacketRecord data(Timestamp ts, SeqNum seq, std::uint16_t len,
                  bool outbound = true, const FourTuple& tuple = kFlow) {
  PacketRecord p;
  p.ts = ts;
  p.tuple = outbound ? tuple : tuple.reversed();
  p.seq = seq;
  p.payload = len;
  p.flags = tcp_flag::kAck | tcp_flag::kPsh;
  p.outbound = outbound;
  return p;
}

PacketRecord pure_ack(Timestamp ts, SeqNum ack, bool outbound = false,
                      const FourTuple& tuple = kFlow) {
  PacketRecord p;
  p.ts = ts;
  p.tuple = outbound ? tuple : tuple.reversed();
  p.ack = ack;
  p.flags = tcp_flag::kAck;
  p.outbound = outbound;
  return p;
}

DartConfig unbounded() { return baseline::tcptrace_const_config(); }

TEST(DartMonitor, MatchesDataWithAck) {
  VectorSink sink;
  DartMonitor dart(unbounded(), sink.callback());
  dart.process(data(usec(100), 1000, 1460));
  dart.process(pure_ack(usec(350), 2460));
  ASSERT_EQ(sink.samples().size(), 1U);
  const RttSample& s = sink.samples()[0];
  EXPECT_EQ(s.rtt(), usec(250));
  EXPECT_EQ(s.eack, 2460U);
  EXPECT_EQ(s.tuple, kFlow);
  EXPECT_EQ(s.leg, LegMode::kExternal);
}

TEST(DartMonitor, CumulativeAckSamplesOnlyExactMatch) {
  VectorSink sink;
  DartMonitor dart(unbounded(), sink.callback());
  dart.process(data(usec(100), 1000, 1000));  // eACK 2000
  dart.process(data(usec(110), 2000, 1000));  // eACK 3000
  dart.process(pure_ack(usec(400), 3000));    // cumulative
  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].eack, 3000U);
  EXPECT_EQ(sink.samples()[0].seq_ts, usec(110));
  // The first record is stranded, awaiting lazy eviction.
  EXPECT_EQ(dart.packet_tracker().occupied(), 1U);
}

TEST(DartMonitor, RetransmittedPacketNeverSampled) {
  VectorSink sink;
  DartMonitor dart(unbounded(), sink.callback());
  dart.process(data(usec(100), 1000, 1000));
  dart.process(data(usec(500), 1000, 1000));  // retransmission
  dart.process(pure_ack(usec(900), 2000));
  // The ACK is ambiguous (old or new copy?) so no sample is collected.
  EXPECT_TRUE(sink.samples().empty());
  EXPECT_EQ(dart.stats().seq_retransmissions, 1U);
}

TEST(DartMonitor, DuplicateAckSuppressesInflatedSamples) {
  VectorSink sink;
  DartMonitor dart(unbounded(), sink.callback());
  dart.process(data(usec(0), 1000, 1000));    // P1, eACK 2000
  dart.process(pure_ack(usec(200), 2000));    // ACK P1: sample
  dart.process(data(usec(300), 3000, 1000));  // P3 (P2 reordered away)
  dart.process(pure_ack(usec(500), 2000));    // dup ACK -> collapse
  dart.process(data(usec(600), 2000, 1000));  // P2 finally arrives: rtx path
  dart.process(pure_ack(usec(900), 4000));    // cumulative ACK of P2+P3
  // Only P1's unambiguous sample; P3's would-be-inflated sample suppressed.
  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].eack, 2000U);
  EXPECT_EQ(dart.stats().ack_duplicates, 1U);
}

TEST(DartMonitor, OptimisticAckIgnored) {
  VectorSink sink;
  DartMonitor dart(unbounded(), sink.callback());
  dart.process(data(usec(0), 1000, 1000));
  dart.process(pure_ack(usec(10), 5000));  // beyond the right edge
  EXPECT_TRUE(sink.samples().empty());
  EXPECT_EQ(dart.stats().ack_optimistic, 1U);
  // The honest ACK later still samples.
  dart.process(pure_ack(usec(300), 2000));
  EXPECT_EQ(sink.samples().size(), 1U);
}

TEST(DartMonitor, MinusSynModeIgnoresHandshake) {
  DartConfig config = unbounded();
  config.include_syn = false;
  VectorSink sink;
  DartMonitor dart(config, sink.callback());

  PacketRecord syn = data(usec(0), 999, 0);
  syn.flags = tcp_flag::kSyn;
  dart.process(syn);
  PacketRecord syn_ack = pure_ack(usec(100), 1000);
  syn_ack.flags |= tcp_flag::kSyn;
  syn_ack.seq = 5000;
  dart.process(syn_ack);

  EXPECT_EQ(dart.stats().syn_ignored, 2U);
  EXPECT_EQ(dart.range_tracker().occupied(), 0U);
  EXPECT_TRUE(sink.samples().empty());
}

TEST(DartMonitor, PlusSynModeCollectsHandshakeRtt) {
  DartConfig config = unbounded();
  config.include_syn = true;
  VectorSink sink;
  DartMonitor dart(config, sink.callback());

  PacketRecord syn = data(usec(0), 999, 0);
  syn.flags = tcp_flag::kSyn;  // consumes one sequence number: eACK 1000
  dart.process(syn);
  PacketRecord syn_ack = pure_ack(usec(180), 1000);
  syn_ack.flags |= tcp_flag::kSyn;
  dart.process(syn_ack);

  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].rtt(), usec(180));
}

TEST(DartMonitor, InternalLegMatchesInboundDataWithOutboundAck) {
  DartConfig config = unbounded();
  config.leg = LegMode::kInternal;
  VectorSink sink;
  DartMonitor dart(config, sink.callback());

  dart.process(data(usec(0), 7000, 1200, /*outbound=*/false));
  dart.process(pure_ack(usec(40), 8200, /*outbound=*/true));
  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].rtt(), usec(40));
  EXPECT_EQ(sink.samples()[0].leg, LegMode::kInternal);
  EXPECT_EQ(sink.samples()[0].tuple, kFlow.reversed());
}

TEST(DartMonitor, ExternalLegIgnoresInboundData) {
  VectorSink sink;
  DartMonitor dart(unbounded(), sink.callback());
  dart.process(data(usec(0), 7000, 1200, /*outbound=*/false));
  dart.process(pure_ack(usec(40), 8200, /*outbound=*/true));
  EXPECT_TRUE(sink.samples().empty());
  EXPECT_EQ(dart.stats().seq_candidates, 0U);
}

TEST(DartMonitor, BothLegsCountsDualRoleRecirculation) {
  DartConfig config = unbounded();
  config.leg = LegMode::kBoth;
  VectorSink sink;
  DartMonitor dart(config, sink.callback());

  // Every data packet carrying an ACK flag plays both roles in dual-leg
  // mode: SEQ on one leg, ACK on the other -> one extra recirculation per
  // such packet (Section 5). Both packets below are data+ACK.
  dart.process(data(usec(0), 7000, 1200, /*outbound=*/false));  // server data
  PacketRecord piggy = data(usec(50), 1000, 500, /*outbound=*/true);
  piggy.ack = 8200;
  dart.process(piggy);
  EXPECT_EQ(dart.stats().dual_role_recirculations, 2U);
  ASSERT_EQ(sink.samples().size(), 1U);  // internal-leg sample via piggyback
  EXPECT_EQ(sink.samples()[0].leg, LegMode::kInternal);
}

TEST(DartMonitor, LazyEvictionGivesOldRecordsASecondChance) {
  DartConfig config;
  config.rt_size = 0;
  config.pt_size = 1;  // every pair of tracked packets collides
  config.pt_stages = 1;
  config.max_recirculations = 1;
  VectorSink sink;
  DartMonitor dart(config, sink.callback());

  FourTuple other = kFlow;
  other.src_port = 40001;
  dart.process(data(usec(0), 1000, 1000));                  // A
  dart.process(data(usec(10), 5000, 1000, true, other));    // B evicts A
  // A recirculates (still valid), re-inserts, displaces B; B's re-insert
  // would displace A again -> cycle detected -> B dropped. The older record
  // survives: no bias against long RTTs.
  EXPECT_EQ(dart.stats().pt_evictions, 2U);
  EXPECT_EQ(dart.stats().recirculations, 1U);
  EXPECT_EQ(dart.stats().drops_cycle, 1U);

  dart.process(pure_ack(usec(300), 2000));  // ACK for A
  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].seq_ts, usec(0));
}

TEST(DartMonitor, StaleEvictedRecordSelfDestructs) {
  DartConfig config;
  config.rt_size = 0;
  config.pt_size = 1;
  config.max_recirculations = 4;
  VectorSink sink;
  DartMonitor dart(config, sink.callback());

  dart.process(data(usec(0), 1000, 1000));  // A: eACK 2000, range [1000,2000]
  // A duplicate ACK of the left edge collapses A's measurement range; A's
  // PT record is now stale but still occupies the single slot.
  dart.process(pure_ack(usec(50), 1000));
  EXPECT_EQ(dart.stats().ack_duplicates, 1U);

  // A new flow's tracked packet collides: A is evicted, recirculated, fails
  // RT re-validation, and self-destructs; the newcomer keeps the slot.
  FourTuple other = kFlow;
  other.src_port = 40002;
  dart.process(data(usec(300), 9000, 100, true, other));
  EXPECT_EQ(dart.stats().drops_stale, 1U);
  dart.process(pure_ack(usec(400), 9100, false, other));
  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].eack, 9100U);
}

TEST(DartMonitor, RecirculationBudgetBoundsWork) {
  DartConfig config;
  config.rt_size = 0;
  config.pt_size = 1;
  config.max_recirculations = 0;  // no second chances at all
  VectorSink sink;
  DartMonitor dart(config, sink.callback());

  FourTuple other = kFlow;
  other.src_port = 40003;
  dart.process(data(usec(0), 1000, 1000));
  dart.process(data(usec(10), 5000, 1000, true, other));
  EXPECT_EQ(dart.stats().drops_budget, 1U);
  EXPECT_EQ(dart.stats().recirculations, 0U);
  // Old record is gone; only the new one can sample.
  dart.process(pure_ack(usec(300), 2000));
  dart.process(pure_ack(usec(310), 6000, false, other));
  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].eack, 6000U);
}

class RejectEverything final : public UsefulnessFilter {
 public:
  bool useful(Timestamp, Timestamp) const override { return false; }
};

TEST(DartMonitor, UsefulnessFilterVetoesRecirculation) {
  DartConfig config;
  config.rt_size = 0;
  config.pt_size = 1;
  config.max_recirculations = 8;
  VectorSink sink;
  DartMonitor dart(config, sink.callback());
  RejectEverything filter;
  dart.set_usefulness_filter(&filter);

  FourTuple other = kFlow;
  other.src_port = 40004;
  dart.process(data(usec(0), 1000, 1000));
  dart.process(data(usec(10), 5000, 1000, true, other));
  EXPECT_EQ(dart.stats().drops_useless, 1U);
  EXPECT_EQ(dart.stats().recirculations, 0U);
}

TEST(DartMonitor, SampleTimestampsAreFaithful) {
  VectorSink sink;
  DartMonitor dart(unbounded(), sink.callback());
  const Timestamp seq_time = msec(123);
  const Timestamp ack_time = msec(160);
  dart.process(data(seq_time, 1000, 100));
  dart.process(pure_ack(ack_time, 1100));
  ASSERT_EQ(sink.samples().size(), 1U);
  EXPECT_EQ(sink.samples()[0].seq_ts, seq_time);
  EXPECT_EQ(sink.samples()[0].ack_ts, ack_time);
  EXPECT_EQ(sink.samples()[0].rtt(), msec(37));
}

TEST(DartMonitor, RstAndPureAckAreNotSeqCandidates) {
  VectorSink sink;
  DartMonitor dart(unbounded(), sink.callback());
  PacketRecord rst;
  rst.tuple = kFlow;
  rst.flags = tcp_flag::kRst;
  rst.outbound = true;
  dart.process(rst);
  dart.process(pure_ack(usec(5), 1, true));
  EXPECT_EQ(dart.stats().seq_candidates, 0U);
  EXPECT_EQ(dart.packet_tracker().occupied(), 0U);
}

// process_all() compiles its span loop as one body with everything the
// per-packet path reaches: the flow filter, the usefulness filter, the
// shadow RT's backlog and sync, and the collapse, optimistic-ACK and sample
// callbacks. With every one of them installed, random span splits must
// leave exactly what a per-packet process() replay leaves.
class YoungRecordsOnly final : public UsefulnessFilter {
 public:
  bool useful(Timestamp seq_ts, Timestamp now) const override {
    return now - seq_ts < msec(30);
  }
};

struct HookedRun {
  std::vector<RttSample> samples;
  std::vector<CollapseEvent> collapses;
  std::vector<OptimisticAckEvent> optimistics;
  CheckpointImage image;
  DartStats stats;
};

std::vector<PacketRecord> hooked_workload() {
  gen::CampusConfig campus;
  campus.seed = 2828;
  campus.connections = 1200;
  campus.duration = sec(3);
  campus.loss_rate = 0.02;
  campus.reorder_prob = 0.02;
  std::vector<PacketRecord> packets = gen::build_campus(campus).packets();
  // Push every 53rd ACK past its flow's right edge so the optimistic-ACK
  // path fires too.
  std::size_t acks = 0;
  for (PacketRecord& packet : packets) {
    if (packet.is_ack() && ++acks % 53 == 0) packet.ack += 1U << 20;
  }
  return packets;
}

// `split_seed` 0 replays one process() call per packet; any other value
// cuts the stream into random spans (empty ones included) for
// process_all().
HookedRun run_hooked(std::span<const PacketRecord> packets,
                     std::uint64_t split_seed) {
  DartConfig config;
  config.leg = LegMode::kBoth;
  config.rt_size = 1 << 10;
  config.pt_size = 1 << 8;
  config.pt_stages = 2;
  config.max_recirculations = 3;
  config.rt_idle_timeout = msec(400);
  config.shadow_rt = true;
  config.shadow_sync_interval = 48;

  HookedRun run;
  DartMonitor monitor(config,
                      [&run](const RttSample& s) { run.samples.push_back(s); });
  monitor.set_collapse_callback(
      [&run](const CollapseEvent& e) { run.collapses.push_back(e); });
  monitor.set_optimistic_ack_callback(
      [&run](const OptimisticAckEvent& e) { run.optimistics.push_back(e); });
  FlowFilter flows;
  FlowRule skip_half_of_wireless;
  skip_half_of_wireless.src = Ipv4Prefix{Ipv4Addr{10, 9, 0, 0}, 17};
  skip_half_of_wireless.track = false;
  flows.add_rule(skip_half_of_wireless);
  flows.add_rule(FlowRule{});
  monitor.set_flow_filter(&flows);
  const YoungRecordsOnly useful;
  monitor.set_usefulness_filter(&useful);

  if (split_seed == 0) {
    for (const PacketRecord& packet : packets) monitor.process(packet);
  } else {
    std::mt19937_64 rng(split_seed);
    std::uniform_int_distribution<std::size_t> width(0, 300);
    for (std::size_t at = 0; at < packets.size();) {
      const std::size_t n = std::min(width(rng), packets.size() - at);
      monitor.process_all(packets.subspan(at, n));
      at += n;
    }
  }
  run.image = monitor.snapshot(SnapshotMeta{});
  run.stats = monitor.stats();
  return run;
}

TEST(DartMonitor, SpanLoopEqualsPerPacketWithEveryHookInstalled) {
  const std::vector<PacketRecord> packets = hooked_workload();
  const HookedRun want = run_hooked(packets, 0);
  // Every hook must actually fire, or the comparison proves nothing.
  EXPECT_GT(want.samples.size(), 0U);
  EXPECT_GT(want.collapses.size(), 0U);
  EXPECT_GT(want.optimistics.size(), 0U);
  EXPECT_GT(want.stats.filtered_packets, 0U);
  EXPECT_GT(want.stats.drops_useless, 0U);
  EXPECT_GT(want.stats.drops_shadow, 0U);
  EXPECT_GT(want.stats.dual_role_recirculations, 0U);
  EXPECT_GT(want.stats.rt_idle_timeouts, 0U);

  for (const std::uint64_t split_seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE(split_seed);
    const HookedRun got = run_hooked(packets, split_seed);
    EXPECT_EQ(want.image.bytes, got.image.bytes);
    EXPECT_EQ(want.samples, got.samples);
    EXPECT_EQ(want.collapses, got.collapses);
    EXPECT_EQ(want.optimistics, got.optimistics);
  }
}

}  // namespace
}  // namespace dart::core
