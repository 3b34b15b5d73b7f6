// PacketSource implementations: ReplaySource (paced and unpaced trace
// playback) and SocketSource (records streamed over loopback TCP). The
// properties the daemon stands on: poll() never blocks, pacing changes
// availability but never content or order, and the socket stream
// reassembles fixed-size records across arbitrary write boundaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "daemon/net.hpp"
#include "daemon/replay_source.hpp"
#include "daemon/socket_source.hpp"
#include "gen/workload.hpp"
#include "trace/trace_io.hpp"

namespace dart {
namespace {

trace::Trace tiny_workload() {
  gen::CampusConfig config;
  config.seed = 3;
  config.connections = 30;
  config.duration = sec(1);
  return gen::build_campus(config);
}

std::vector<PacketRecord> drain(daemon::PacketSource& source,
                                std::size_t max_per_poll) {
  std::vector<PacketRecord> all;
  std::vector<PacketRecord> batch;
  while (!source.exhausted()) {
    batch.clear();
    if (source.poll(batch, max_per_poll) == 0) continue;
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

TEST(ReplaySource, UnpacedDeliversWholeTraceInOrder) {
  const trace::Trace trace = tiny_workload();
  daemon::ReplaySource source{trace};
  EXPECT_FALSE(source.exhausted());
  const std::vector<PacketRecord> got = drain(source, 64);
  ASSERT_EQ(got.size(), trace.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], trace.packets()[i]);
  }
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(source.released(), trace.size());
}

// The source takes the trace's packets and drops its ground truth; a
// trace that carries truth replays exactly the packets it holds.
TEST(ReplaySource, TraceWithTruthReplaysIdenticalPackets) {
  const trace::Trace trace = tiny_workload();
  ASSERT_FALSE(trace.truth().empty());
  trace::Trace moved = trace;
  daemon::ReplaySource source{std::move(moved)};
  EXPECT_EQ(drain(source, 64), trace.packets());
  EXPECT_EQ(source.released(), trace.size());
}

TEST(ReplaySource, PollRespectsMax) {
  const trace::Trace trace = tiny_workload();
  daemon::ReplaySource source{trace};
  std::vector<PacketRecord> batch;
  EXPECT_EQ(source.poll(batch, 5), 5u);
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_EQ(source.released(), 5u);
}

TEST(ReplaySource, EmptyTraceIsBornExhausted) {
  daemon::ReplaySource source{trace::Trace{}};
  std::vector<PacketRecord> batch;
  EXPECT_EQ(source.poll(batch, 16), 0u);
  EXPECT_TRUE(source.exhausted());
}

// A very fast pace (trace seconds compressed to nanoseconds) releases
// everything almost immediately — and, crucially, with content and order
// identical to the unpaced replay. This is the live-vs-replay bridge.
TEST(ReplaySource, FastPacedMatchesUnpacedContent) {
  const trace::Trace trace = tiny_workload();
  daemon::ReplaySource unpaced{trace};
  daemon::ReplaySource paced{trace, daemon::ReplaySourceConfig{1e9}};
  const std::vector<PacketRecord> a = drain(unpaced, 32);
  const std::vector<PacketRecord> b = drain(paced, 32);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// A slow pace must hold back packets whose trace time has not fallen due:
// with a 1-second gap replayed at real time, the second packet cannot be
// released by an immediate second poll.
TEST(ReplaySource, SlowPaceHoldsBackFuturePackets) {
  trace::Trace trace;
  PacketRecord first{};
  first.ts = 1000;
  PacketRecord second = first;
  second.ts = first.ts + sec(1);
  trace.add(first);
  trace.add(second);
  daemon::ReplaySource source{trace, daemon::ReplaySourceConfig{1.0}};
  std::vector<PacketRecord> batch;
  source.poll(batch, 16);
  EXPECT_EQ(batch.size(), 1u);  // only the anchor packet is due
  batch.clear();
  EXPECT_EQ(source.poll(batch, 16), 0u);  // 1 wall-second has not passed
  EXPECT_FALSE(source.exhausted());
}

TEST(SocketSource, BindsEphemeralPort) {
  daemon::SocketSource source{0};
  EXPECT_NE(source.port(), 0);
  EXPECT_FALSE(source.exhausted());
  std::vector<PacketRecord> batch;
  EXPECT_EQ(source.poll(batch, 16), 0u);  // no feeder yet; never blocks
}

std::vector<std::uint8_t> encode_all(
    const std::vector<PacketRecord>& packets) {
  std::vector<std::uint8_t> bytes(packets.size() *
                                  trace::kPacketRecordBytes);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    trace::encode_packet_record(packets[i],
                                bytes.data() + i * trace::kPacketRecordBytes);
  }
  return bytes;
}

TEST(SocketSource, StreamsRecordsAcrossArbitraryWriteBoundaries) {
  const trace::Trace trace = tiny_workload();
  daemon::SocketSource source{0};
  ASSERT_NE(source.port(), 0);
  const int fd = daemon::connect_tcp_local(source.port());
  ASSERT_GE(fd, 0);

  const std::vector<std::uint8_t> bytes = encode_all(trace.packets());
  const auto never = []() { return false; };
  // Write in a prime-sized chunk so record boundaries straddle writes.
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t chunk = std::min<std::size_t>(61, bytes.size() - off);
    ASSERT_TRUE(daemon::write_all(fd, bytes.data() + off, chunk, never));
    off += chunk;
  }
  daemon::close_fd(fd);  // EOF: source drains then reports exhausted

  const std::vector<PacketRecord> got = drain(source, 100);
  ASSERT_EQ(got.size(), trace.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], trace.packets()[i]);
  }
  EXPECT_EQ(source.rejected_records(), 0u);
}

TEST(SocketSource, RejectsInvalidRecordsAndStaysInSync) {
  const trace::Trace trace = tiny_workload();
  ASSERT_GE(trace.size(), 3u);
  daemon::SocketSource source{0};
  const int fd = daemon::connect_tcp_local(source.port());
  ASSERT_GE(fd, 0);

  std::vector<PacketRecord> packets(trace.packets().begin(),
                                    trace.packets().begin() + 3);
  std::vector<std::uint8_t> bytes = encode_all(packets);
  bytes[1 * trace::kPacketRecordBytes + 31] = 7;  // outbound flag > 1
  const auto never = []() { return false; };
  ASSERT_TRUE(daemon::write_all(fd, bytes.data(), bytes.size(), never));
  daemon::close_fd(fd);

  const std::vector<PacketRecord> got = drain(source, 16);
  ASSERT_EQ(got.size(), 2u);  // the damaged middle record is dropped
  EXPECT_EQ(got[0], packets[0]);
  EXPECT_EQ(got[1], packets[2]);  // fixed-size framing kept the sync
  EXPECT_EQ(source.rejected_records(), 1u);
}

TEST(SocketSource, RearmAcceptsTheNextFeeder) {
  const trace::Trace trace = tiny_workload();
  daemon::SocketSource source{0};
  const auto never = []() { return false; };

  for (int round = 0; round < 2; ++round) {
    if (round > 0) source.rearm();
    const int fd = daemon::connect_tcp_local(source.port());
    ASSERT_GE(fd, 0);
    const std::vector<std::uint8_t> bytes = encode_all(
        {trace.packets().begin(), trace.packets().begin() + 2});
    ASSERT_TRUE(daemon::write_all(fd, bytes.data(), bytes.size(), never));
    daemon::close_fd(fd);
    const std::vector<PacketRecord> got = drain(source, 16);
    EXPECT_EQ(got.size(), 2u) << "round " << round;
    EXPECT_TRUE(source.exhausted());
  }
}

// Block-at-a-time ingest: a feeder thread writes the whole stream at once
// (far more than the socket buffers hold), so the source must read it a
// block per read(2) and carry split records across reads.
std::vector<PacketRecord> numbered_packets(std::size_t n) {
  const trace::Trace trace = tiny_workload();
  std::vector<PacketRecord> packets(n);
  for (std::size_t i = 0; i < n; ++i) {
    packets[i] = trace.packets()[i % trace.size()];
    packets[i].ts = i;  // every record distinct, so order is checkable
  }
  return packets;
}

/// Connects to `port`, then writes `bytes` and closes (EOF) from a thread.
std::thread feed(std::uint16_t port, std::vector<std::uint8_t> bytes) {
  const int fd = daemon::connect_tcp_local(port);
  EXPECT_GE(fd, 0);
  return std::thread([fd, bytes = std::move(bytes)] {
    EXPECT_TRUE(daemon::write_all(fd, bytes.data(), bytes.size(),
                                  [] { return false; }));
    daemon::close_fd(fd);
  });
}

TEST(SocketSource, MultiBlockWriteArrivesInOrderWithinMax) {
  const std::vector<PacketRecord> packets =
      numbered_packets(3 * trace::kBlockRecords + 517);
  daemon::SocketSource source{0};
  std::thread feeder = feed(source.port(), encode_all(packets));

  std::vector<PacketRecord> got;
  std::vector<PacketRecord> batch;
  while (!source.exhausted()) {
    batch.clear();
    const std::size_t n = source.poll(batch, 100);
    ASSERT_LE(n, 100u);
    ASSERT_EQ(n, batch.size());
    got.insert(got.end(), batch.begin(), batch.end());
  }
  feeder.join();
  // The loop ends at exhausted(): reaching it with every record delivered
  // means exhaustion never came early.
  ASSERT_EQ(got.size(), packets.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], packets[i]) << "record " << i;
  }
  EXPECT_EQ(source.rejected_records(), 0u);
}

TEST(SocketSource, RecordsBufferedAtEofAreDeliveredBeforeExhausted) {
  const std::vector<PacketRecord> packets = numbered_packets(300);
  daemon::SocketSource source{0};
  feed(source.port(), encode_all(packets)).join();  // peer already closed

  // Poll until something arrives; a small max leaves most of the stream
  // buffered in the source after the feeder's EOF.
  std::vector<PacketRecord> got;
  while (got.empty()) source.poll(got, 10);
  EXPECT_LE(got.size(), 10u);
  EXPECT_FALSE(source.exhausted());
  const std::vector<PacketRecord> rest = drain(source, 10);
  got.insert(got.end(), rest.begin(), rest.end());
  ASSERT_EQ(got.size(), packets.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], packets[i]);
  EXPECT_TRUE(source.exhausted());
  std::vector<PacketRecord> none;
  EXPECT_EQ(source.poll(none, 10), 0u);
}

TEST(SocketSource, TrailingPartialRecordIsDroppedAndRearmStartsClean) {
  const std::vector<PacketRecord> packets = numbered_packets(9);
  daemon::SocketSource source{0};

  std::vector<std::uint8_t> first =
      encode_all({packets.begin(), packets.begin() + 5});
  const std::vector<std::uint8_t> sixth = encode_all({packets[5]});
  first.insert(first.end(), sixth.begin(), sixth.begin() + 13);
  feed(source.port(), first).join();
  const std::vector<PacketRecord> got = drain(source, 64);
  ASSERT_EQ(got.size(), 5u);  // the 13-byte tail never becomes a record
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], packets[i]);
  EXPECT_TRUE(source.exhausted());

  source.rearm();
  EXPECT_FALSE(source.exhausted());
  feed(source.port(), encode_all({packets.begin() + 5, packets.end()})).join();
  const std::vector<PacketRecord> second = drain(source, 64);
  ASSERT_EQ(second.size(), 4u);  // framed from the new feeder's first byte
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i], packets[5 + i]);
  }
  EXPECT_EQ(source.rejected_records(), 0u);
}

TEST(SocketSource, InvalidRecordInsideALargeBlockIsRejectedAlone) {
  const std::vector<PacketRecord> packets =
      numbered_packets(2 * trace::kBlockRecords + 77);
  const std::size_t bad = trace::kBlockRecords + 1000;
  std::vector<std::uint8_t> bytes = encode_all(packets);
  bytes[bad * trace::kPacketRecordBytes + 31] = 9;  // outbound flag > 1
  daemon::SocketSource source{0};
  std::thread feeder = feed(source.port(), std::move(bytes));
  const std::vector<PacketRecord> got = drain(source, 100);
  feeder.join();

  ASSERT_EQ(got.size(), packets.size() - 1);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], packets[i < bad ? i : i + 1]) << "record " << i;
  }
  EXPECT_EQ(source.rejected_records(), 1u);
}

// Round-trip of the wire format itself: encode/decode is the .dtrc record
// layout, and decode rejects an impossible direction flag.
TEST(PacketRecordCodec, RoundTripsAndValidates) {
  const trace::Trace trace = tiny_workload();
  std::uint8_t buf[trace::kPacketRecordBytes];
  for (const PacketRecord& packet : trace.packets()) {
    trace::encode_packet_record(packet, buf);
    PacketRecord back{};
    ASSERT_TRUE(trace::decode_packet_record(buf, back));
    EXPECT_EQ(back, packet);
  }
  trace::encode_packet_record(trace.packets().front(), buf);
  buf[31] = 2;  // outbound must be 0 or 1
  PacketRecord back{};
  EXPECT_FALSE(trace::decode_packet_record(buf, back));
}

}  // namespace
}  // namespace dart
