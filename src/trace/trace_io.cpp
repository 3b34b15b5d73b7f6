#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

namespace dart::trace {
namespace {

constexpr std::array<char, 4> kMagic = {'D', 'T', 'R', 'C'};

// Both record streams share one record size, so one block buffer (and one
// block size) serves the packet and the truth section alike.
static_assert(kPacketRecordBytes == kTruthRecordBytes);
constexpr std::size_t kRecordBytes = kPacketRecordBytes;
constexpr std::size_t kBlockBytes = kBlockRecords * kRecordBytes;

template <typename T>
constexpr T swap_bytes(T value) {
  T swapped = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    swapped = static_cast<T>((swapped << 8) | (value & 0xFF));
    value = static_cast<T>(value >> 8);
  }
  return swapped;
}

// Fixed-width little-endian loads and stores: a memcpy the compiler turns
// into one move, plus a byte swap compiled only on big-endian hosts.
template <typename T>
T load_le(const std::uint8_t* in) {
  T value = 0;
  std::memcpy(&value, in, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    value = swap_bytes(value);
  }
  return value;
}

template <typename T>
void store_le(std::uint8_t* out, T value) {
  if constexpr (std::endian::native == std::endian::big) {
    value = swap_bytes(value);
  }
  std::memcpy(out, &value, sizeof(T));
}

/// Bytes from the current position to end-of-stream, when the stream is
/// seekable; nullopt otherwise (e.g. a pipe).
std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const auto pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return std::nullopt;
  return static_cast<std::uint64_t>(end - pos);
}

/// Hands out the records of a stream one at a time while reading them a
/// block per istream::read. offset() is the stream offset of the next
/// record, so every failure can point at the start of the damaged record.
class BlockReader {
 public:
  BlockReader(std::istream& in, std::uint64_t offset)
      : in_(in), offset_(offset), block_(kBlockBytes) {}

  /// The next whole record, or nullptr when the stream ends inside it.
  /// `records_left` (declared records of the current section not yet
  /// handed out) caps each read, so the reader never consumes bytes past
  /// the section's last record.
  const std::uint8_t* next(std::uint64_t records_left) {
    if (pos_ == len_) {
      const std::uint64_t want =
          std::min<std::uint64_t>(records_left, kBlockRecords) * kRecordBytes;
      in_.read(reinterpret_cast<char*>(block_.data()),
               static_cast<std::streamsize>(want));
      len_ = static_cast<std::size_t>(in_.gcount());
      pos_ = 0;
    }
    if (len_ - pos_ < kRecordBytes) return nullptr;
    const std::uint8_t* record = block_.data() + pos_;
    pos_ += kRecordBytes;
    offset_ += kRecordBytes;
    return record;
  }

  std::uint64_t offset() const { return offset_; }

 private:
  std::istream& in_;
  std::uint64_t offset_;
  std::vector<std::uint8_t> block_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

/// Collects encoded records into a block and writes once per full block.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out) : out_(out), block_(kBlockBytes) {}

  /// Room for the next `bytes` (at most one record) of output.
  std::uint8_t* next(std::size_t bytes) {
    if (len_ + bytes > block_.size()) flush();
    std::uint8_t* slot = block_.data() + len_;
    len_ += bytes;
    return slot;
  }

  void flush() {
    out_.write(reinterpret_cast<const char*>(block_.data()),
               static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  std::ostream& out_;
  std::vector<std::uint8_t> block_;
  std::size_t len_ = 0;
};

TraceReadResult fail(TraceErrorCode code, std::uint64_t offset) {
  TraceReadResult result;
  result.error = {code, offset};
  return result;
}

}  // namespace

const char* to_string(TraceErrorCode code) {
  switch (code) {
    case TraceErrorCode::kNone: return "none";
    case TraceErrorCode::kIoError: return "I/O error";
    case TraceErrorCode::kBadMagic: return "bad magic";
    case TraceErrorCode::kBadVersion: return "unsupported version";
    case TraceErrorCode::kTruncatedHeader: return "truncated header";
    case TraceErrorCode::kImpossibleCount: return "impossible record count";
    case TraceErrorCode::kTruncatedPacket: return "truncated packet record";
    case TraceErrorCode::kTruncatedTruth: return "truncated truth record";
    case TraceErrorCode::kBadFieldValue: return "out-of-range field value";
  }
  return "unknown";
}

std::string TraceError::to_string() const {
  std::string out = trace::to_string(code);
  out += " at byte ";
  out += std::to_string(offset);
  return out;
}

void encode_packet_record(const PacketRecord& packet, std::uint8_t* out) {
  store_le<std::uint64_t>(out + 0, packet.ts);
  store_le<std::uint32_t>(out + 8, packet.tuple.src_ip.value());
  store_le<std::uint32_t>(out + 12, packet.tuple.dst_ip.value());
  store_le<std::uint16_t>(out + 16, packet.tuple.src_port);
  store_le<std::uint16_t>(out + 18, packet.tuple.dst_port);
  store_le<std::uint32_t>(out + 20, packet.seq);
  store_le<std::uint32_t>(out + 24, packet.ack);
  store_le<std::uint16_t>(out + 28, packet.payload);
  out[30] = packet.flags;
  out[31] = packet.outbound ? 1 : 0;
}

bool decode_packet_record(const std::uint8_t* in, PacketRecord& packet) {
  const std::uint8_t outbound = in[31];
  if (outbound > 1) return false;
  packet.ts = load_le<std::uint64_t>(in + 0);
  packet.tuple.src_ip = Ipv4Addr{load_le<std::uint32_t>(in + 8)};
  packet.tuple.dst_ip = Ipv4Addr{load_le<std::uint32_t>(in + 12)};
  packet.tuple.src_port = load_le<std::uint16_t>(in + 16);
  packet.tuple.dst_port = load_le<std::uint16_t>(in + 18);
  packet.seq = load_le<std::uint32_t>(in + 20);
  packet.ack = load_le<std::uint32_t>(in + 24);
  packet.payload = load_le<std::uint16_t>(in + 28);
  packet.flags = in[30];
  packet.outbound = outbound != 0;
  return true;
}

void encode_truth_record(const TruthSample& truth, std::uint8_t* out) {
  store_le<std::uint32_t>(out + 0, truth.tuple.src_ip.value());
  store_le<std::uint32_t>(out + 4, truth.tuple.dst_ip.value());
  store_le<std::uint16_t>(out + 8, truth.tuple.src_port);
  store_le<std::uint16_t>(out + 10, truth.tuple.dst_port);
  store_le<std::uint32_t>(out + 12, truth.eack);
  store_le<std::uint64_t>(out + 16, truth.seq_ts);
  store_le<std::uint64_t>(out + 24, truth.ack_ts);
}

bool decode_truth_record(const std::uint8_t* in, TruthSample& truth) {
  const std::uint64_t seq_ts = load_le<std::uint64_t>(in + 16);
  const std::uint64_t ack_ts = load_le<std::uint64_t>(in + 24);
  // A truth RTT must be non-negative: ack observed before its data
  // packet is an impossible record, not a measurement.
  if (ack_ts < seq_ts) return false;
  truth.tuple.src_ip = Ipv4Addr{load_le<std::uint32_t>(in + 0)};
  truth.tuple.dst_ip = Ipv4Addr{load_le<std::uint32_t>(in + 4)};
  truth.tuple.src_port = load_le<std::uint16_t>(in + 8);
  truth.tuple.dst_port = load_le<std::uint16_t>(in + 10);
  truth.eack = load_le<std::uint32_t>(in + 12);
  truth.seq_ts = seq_ts;
  truth.ack_ts = ack_ts;
  return true;
}

bool write_binary(const Trace& trace, std::ostream& out) {
  BlockWriter writer(out);
  std::uint8_t* header = writer.next(kHeaderBytes);
  std::memcpy(header, kMagic.data(), kMagic.size());
  store_le<std::uint32_t>(header + 4, kTraceFormatVersion);
  store_le<std::uint64_t>(header + 8, trace.packets().size());
  store_le<std::uint64_t>(header + 16, trace.truth().size());
  for (const PacketRecord& p : trace.packets()) {
    encode_packet_record(p, writer.next(kRecordBytes));
  }
  for (const TruthSample& s : trace.truth()) {
    encode_truth_record(s, writer.next(kRecordBytes));
  }
  writer.flush();
  return static_cast<bool>(out);
}

bool write_binary_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  // Flush before reporting: a full disk surfaces only when the buffered
  // tail is written, and the destructor would swallow that error.
  return out && write_binary(trace, out) && out.flush();
}

TraceReadResult read_binary_checked(std::istream& in,
                                    const TraceReadOptions& options) {
  if (!in.good()) return fail(TraceErrorCode::kIoError, 0);

  // --- Header: damage here is fatal in every mode. Read in one piece;
  // the byte count reached says which field the stream ended inside.
  std::array<std::uint8_t, kHeaderBytes> header{};
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header.size()));
  const auto got = static_cast<std::uint64_t>(in.gcount());
  if (got < 4) return fail(TraceErrorCode::kTruncatedHeader, 0);
  if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0) {
    return fail(TraceErrorCode::kBadMagic, 0);
  }
  if (got < 8) return fail(TraceErrorCode::kTruncatedHeader, 4);
  if (load_le<std::uint32_t>(header.data() + 4) != kTraceFormatVersion) {
    return fail(TraceErrorCode::kBadVersion, 4);
  }
  if (got < 16) return fail(TraceErrorCode::kTruncatedHeader, 8);
  if (got < kHeaderBytes) return fail(TraceErrorCode::kTruncatedHeader, 16);
  const std::uint64_t packet_count = load_le<std::uint64_t>(header.data() + 8);
  const std::uint64_t truth_count = load_le<std::uint64_t>(header.data() + 16);

  // --- Count sanity: never trust a header enough to allocate for it. A
  // corrupt count either provably exceeds the stream (seekable: reject or
  // tolerate as full-stream truncation) or is capped for reservation so a
  // hostile header cannot demand terabytes before the first record fails.
  const std::optional<std::uint64_t> remaining = remaining_bytes(in);
  bool counts_impossible = false;
  if (remaining.has_value()) {
    const std::uint64_t max_packets = *remaining / kPacketRecordBytes;
    const std::uint64_t max_truth = *remaining / kTruthRecordBytes;
    if (packet_count > max_packets || truth_count > max_truth ||
        (packet_count * kPacketRecordBytes +
             truth_count * kTruthRecordBytes >
         *remaining)) {
      counts_impossible = true;
    }
  }
  if (counts_impossible && !options.tolerant) {
    return fail(TraceErrorCode::kImpossibleCount, kHeaderBytes - 16);
  }

  TraceReadResult result;
  if (counts_impossible) {
    result.error = {TraceErrorCode::kImpossibleCount, kHeaderBytes - 16};
  }
  Trace trace;
  const std::uint64_t reserve_cap =
      remaining.has_value() ? *remaining / kPacketRecordBytes
                            : std::uint64_t{1} << 20;
  trace.packets().reserve(static_cast<std::size_t>(
      std::min(packet_count, reserve_cap)));
  BlockReader reader(in, kHeaderBytes);

  // --- Packet records. ---
  for (std::uint64_t i = 0; i < packet_count; ++i) {
    const std::uint64_t record_start = reader.offset();
    const std::uint8_t* record = reader.next(packet_count - i);
    if (record == nullptr) {
      if (!options.tolerant) {
        return fail(TraceErrorCode::kTruncatedPacket, record_start);
      }
      if (!result.error) {
        result.error = {TraceErrorCode::kTruncatedPacket, record_start};
      }
      result.lost_records += (packet_count - i) + truth_count;
      result.trace = std::move(trace);
      return result;
    }
    PacketRecord p;
    if (!decode_packet_record(record, p)) {
      if (!options.tolerant) {
        return fail(TraceErrorCode::kBadFieldValue, record_start);
      }
      if (!result.error) {
        result.error = {TraceErrorCode::kBadFieldValue, record_start};
      }
      ++result.skipped_records;
      continue;
    }
    trace.add(p);
    ++result.packets_read;
  }

  // --- Truth records. ---
  trace.truth().reserve(static_cast<std::size_t>(
      std::min(truth_count, remaining.has_value()
                                ? *remaining / kTruthRecordBytes
                                : std::uint64_t{1} << 20)));
  for (std::uint64_t i = 0; i < truth_count; ++i) {
    const std::uint64_t record_start = reader.offset();
    const std::uint8_t* record = reader.next(truth_count - i);
    if (record == nullptr) {
      if (!options.tolerant) {
        return fail(TraceErrorCode::kTruncatedTruth, record_start);
      }
      if (!result.error) {
        result.error = {TraceErrorCode::kTruncatedTruth, record_start};
      }
      result.lost_records += truth_count - i;
      result.trace = std::move(trace);
      return result;
    }
    TruthSample s;
    if (!decode_truth_record(record, s)) {
      if (!options.tolerant) {
        return fail(TraceErrorCode::kBadFieldValue, record_start);
      }
      if (!result.error) {
        result.error = {TraceErrorCode::kBadFieldValue, record_start};
      }
      ++result.skipped_records;
      continue;
    }
    trace.add_truth(s);
    ++result.truth_read;
  }

  result.trace = std::move(trace);
  return result;
}

TraceReadResult read_binary_checked_file(const std::string& path,
                                         const TraceReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(TraceErrorCode::kIoError, 0);
  return read_binary_checked(in, options);
}

std::optional<Trace> read_binary(std::istream& in) {
  TraceReadResult result = read_binary_checked(in);
  if (!result.ok()) return std::nullopt;
  return std::move(result.trace);
}

std::optional<Trace> read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return read_binary(in);
}

bool write_csv(const Trace& trace, std::ostream& out) {
  out << "ts_ns,src_ip,src_port,dst_ip,dst_port,seq,ack,payload,flags,"
         "outbound\n";
  for (const PacketRecord& p : trace.packets()) {
    out << p.ts << ',' << p.tuple.src_ip.to_string() << ',' << p.tuple.src_port
        << ',' << p.tuple.dst_ip.to_string() << ',' << p.tuple.dst_port << ','
        << p.seq << ',' << p.ack << ',' << p.payload << ','
        << static_cast<unsigned>(p.flags) << ',' << (p.outbound ? 1 : 0)
        << '\n';
  }
  return static_cast<bool>(out);
}

bool write_csv_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  return out && write_csv(trace, out) && out.flush();
}

}  // namespace dart::trace
