#include "trace/pcap.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>

namespace dart::trace {
namespace {

PacketRecord sample_packet() {
  PacketRecord p;
  p.ts = sec(3) + 123456789;  // 3.123456789 s
  p.tuple = FourTuple{Ipv4Addr{10, 8, 1, 2}, Ipv4Addr{23, 52, 9, 9}, 40000,
                      443};
  p.seq = 0xDEADBEEF;
  p.ack = 0x12345678;
  p.payload = 1460;
  p.flags = tcp_flag::kAck | tcp_flag::kPsh;
  p.outbound = true;
  return p;
}

std::string render(const Trace& trace) {
  std::stringstream out;
  EXPECT_TRUE(write_pcap(trace, out));
  return out.str();
}

std::uint32_t u32_host(const std::string& bytes, std::size_t offset) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 4);
  return v;
}

std::uint32_t u32_be(const std::string& bytes, std::size_t offset) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(bytes.data()) + offset;
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

std::uint16_t u16_be(const std::string& bytes, std::size_t offset) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(bytes.data()) + offset;
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

TEST(Pcap, GlobalHeaderIsNanosecondEthernet) {
  const std::string bytes = render(Trace{});
  ASSERT_EQ(bytes.size(), 24U);
  EXPECT_EQ(u32_host(bytes, 0), 0xA1B23C4DU);  // ns magic
  EXPECT_EQ(u32_host(bytes, 20), 1U);          // LINKTYPE_ETHERNET
}

TEST(Pcap, RecordLayoutAndTimestamps) {
  Trace trace;
  trace.add(sample_packet());
  const std::string bytes = render(trace);
  // 24 global + 16 record header + 54 frame.
  ASSERT_EQ(bytes.size(), 24U + 16U + 54U);
  EXPECT_EQ(u32_host(bytes, 24), 3U);          // seconds
  EXPECT_EQ(u32_host(bytes, 28), 123456789U);  // nanoseconds
  EXPECT_EQ(u32_host(bytes, 32), 54U);         // captured length
  EXPECT_EQ(u32_host(bytes, 36), 14U + 20U + 20U + 1460U);  // wire length
}

TEST(Pcap, Ipv4AndTcpFieldsRoundTrip) {
  Trace trace;
  trace.add(sample_packet());
  const std::string bytes = render(trace);
  const std::size_t ip = 24 + 16 + 14;
  EXPECT_EQ(bytes[ip] & 0xFF, 0x45);
  EXPECT_EQ(u16_be(bytes, ip + 2), 20U + 20U + 1460U);  // total length
  EXPECT_EQ(u32_be(bytes, ip + 12), Ipv4Addr(10, 8, 1, 2).value());
  EXPECT_EQ(u32_be(bytes, ip + 16), Ipv4Addr(23, 52, 9, 9).value());

  const std::size_t tcp = ip + 20;
  EXPECT_EQ(u16_be(bytes, tcp + 0), 40000U);
  EXPECT_EQ(u16_be(bytes, tcp + 2), 443U);
  EXPECT_EQ(u32_be(bytes, tcp + 4), 0xDEADBEEFU);
  EXPECT_EQ(u32_be(bytes, tcp + 8), 0x12345678U);
  EXPECT_EQ(bytes[tcp + 13] & 0xFF, tcp_flag::kAck | tcp_flag::kPsh);
}

TEST(Pcap, IpChecksumVerifies) {
  Trace trace;
  trace.add(sample_packet());
  const std::string bytes = render(trace);
  const std::size_t ip = 24 + 16 + 14;
  // The one's-complement sum over the IP header including the stored
  // checksum must be 0xFFFF.
  std::uint32_t sum = 0;
  for (int i = 0; i < 10; ++i) sum += u16_be(bytes, ip + 2 * i);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  EXPECT_EQ(sum, 0xFFFFU);
}

TEST(Pcap, OversizedPayloadClampsAtIpv4LengthLimit) {
  // The IPv4 total-length field caps at 65535; with 20 IP + 20 TCP header
  // bytes the largest representable payload is 65495. One byte more used
  // to wrap the 16-bit field to a tiny bogus length — it must clamp to
  // 65535 instead.
  constexpr std::uint16_t kMaxPayload = 65535 - 20 - 20;  // 65495
  const std::size_t ip = 24 + 16 + 14;

  {
    Trace trace;
    PacketRecord p = sample_packet();
    p.payload = kMaxPayload;  // boundary: exactly representable
    trace.add(p);
    const std::string bytes = render(trace);
    EXPECT_EQ(u16_be(bytes, ip + 2), 65535U);              // IP total
    EXPECT_EQ(u32_host(bytes, 36), 14U + 65535U);          // wire length
  }
  {
    Trace trace;
    PacketRecord p = sample_packet();
    p.payload = kMaxPayload + 1;  // boundary + 1: would wrap to 4
    trace.add(p);
    const std::string bytes = render(trace);
    EXPECT_EQ(u16_be(bytes, ip + 2), 65535U);  // clamped, not wrapped
    EXPECT_EQ(u32_host(bytes, 36), 14U + 65535U);
  }
  {
    Trace trace;
    PacketRecord p = sample_packet();
    p.payload = 65535;  // largest encodable payload field
    trace.add(p);
    const std::string bytes = render(trace);
    EXPECT_EQ(u16_be(bytes, ip + 2), 65535U);
  }
}

TEST(Pcap, OnePcapRecordPerPacket) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    PacketRecord p = sample_packet();
    p.ts = msec(i);
    trace.add(p);
  }
  const std::string bytes = render(trace);
  EXPECT_EQ(bytes.size(), 24U + 10U * (16U + 54U));
}

TEST(Pcap, WriteToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Trace trace;
  trace.add(sample_packet());
  EXPECT_FALSE(write_pcap_file(trace, "/dev/full"));
}

}  // namespace
}  // namespace dart::trace
