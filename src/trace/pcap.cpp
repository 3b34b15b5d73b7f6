#include "trace/pcap.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <ostream>

namespace dart::trace {
namespace {

constexpr std::size_t kEthLen = 14;
constexpr std::size_t kIpLen = 20;
constexpr std::size_t kTcpLen = 20;
constexpr std::size_t kFrameLen = kEthLen + kIpLen + kTcpLen;

void put_u16be(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void put_u32be(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

template <typename T>
void put_host(std::ostream& out, T value) {
  // pcap file headers are written in host order; readers detect via magic.
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

std::uint16_t ip_checksum(const std::uint8_t* header, std::size_t words) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < words; ++i) {
    sum += static_cast<std::uint32_t>(header[2 * i]) << 8 |
           header[2 * i + 1];
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace

bool write_pcap(const Trace& trace, std::ostream& out) {
  // Global header: nanosecond magic, v2.4, Ethernet.
  put_host<std::uint32_t>(out, 0xA1B23C4DU);
  put_host<std::uint16_t>(out, 2);
  put_host<std::uint16_t>(out, 4);
  put_host<std::int32_t>(out, 0);
  put_host<std::uint32_t>(out, 0);
  put_host<std::uint32_t>(out, 65535);
  put_host<std::uint32_t>(out, 1);  // LINKTYPE_ETHERNET

  std::array<std::uint8_t, kFrameLen> frame{};
  for (const PacketRecord& p : trace.packets()) {
    // The IPv4 total-length field is 16 bits; payloads above 65495 bytes
    // (65535 - the two header lengths) cannot be represented and used to
    // wrap silently to a tiny bogus length. Clamp to the field's maximum
    // instead: the capture stays parseable and the on-wire length is the
    // closest representable value.
    const std::uint32_t ip_total_wide =
        static_cast<std::uint32_t>(kIpLen + kTcpLen) + p.payload;
    const std::uint16_t ip_total = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(ip_total_wide, 65535));

    // Record header.
    put_host<std::uint32_t>(out,
                            static_cast<std::uint32_t>(p.ts / kNsPerSec));
    put_host<std::uint32_t>(out,
                            static_cast<std::uint32_t>(p.ts % kNsPerSec));
    put_host<std::uint32_t>(out, kFrameLen);               // captured
    put_host<std::uint32_t>(out, kEthLen + ip_total);      // on the wire

    frame.fill(0);
    // Ethernet: locally administered MACs encoding the direction.
    frame[0] = frame[6] = 0x02;
    frame[5] = p.outbound ? 0x01 : 0x02;  // dst
    frame[11] = p.outbound ? 0x02 : 0x01; // src
    put_u16be(&frame[12], 0x0800);

    // IPv4.
    std::uint8_t* ip = frame.data() + kEthLen;
    ip[0] = 0x45;
    put_u16be(ip + 2, ip_total);
    ip[8] = 64;  // TTL
    ip[9] = 6;   // TCP
    put_u32be(ip + 12, p.tuple.src_ip.value());
    put_u32be(ip + 16, p.tuple.dst_ip.value());
    put_u16be(ip + 10, 0);
    put_u16be(ip + 10, ip_checksum(ip, kIpLen / 2));

    // TCP.
    std::uint8_t* tcp = frame.data() + kEthLen + kIpLen;
    put_u16be(tcp + 0, p.tuple.src_port);
    put_u16be(tcp + 2, p.tuple.dst_port);
    put_u32be(tcp + 4, p.seq);
    put_u32be(tcp + 8, p.ack);
    tcp[12] = 0x50;  // data offset 5 words
    tcp[13] = p.flags;
    put_u16be(tcp + 14, 65535);  // window

    out.write(reinterpret_cast<const char*>(frame.data()), frame.size());
  }
  return static_cast<bool>(out);
}

bool write_pcap_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  return out && write_pcap(trace, out) && out.flush();
}

}  // namespace dart::trace
