#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <type_traits>
#include <vector>

namespace dart::trace {
namespace {

constexpr std::array<char, 4> kMagic = {'D', 'T', 'R', 'C'};

// Both record streams share one record size, so one block size serves the
// packet and the truth section alike.
static_assert(kPacketRecordBytes == kTruthRecordBytes);
constexpr std::size_t kRecordBytes = kPacketRecordBytes;

// The block codec copies records whole, so the in-memory layout must be
// the wire layout of the header comment: same size, every field at its
// wire offset, no padding, and copyable as bytes.
static_assert(std::is_trivially_copyable_v<PacketRecord>);
static_assert(std::is_trivially_copyable_v<TruthSample>);
static_assert(sizeof(PacketRecord) == kPacketRecordBytes);
static_assert(sizeof(TruthSample) == kTruthRecordBytes);
static_assert(sizeof(Ipv4Addr) == 4 && sizeof(bool) == 1);
static_assert(offsetof(FourTuple, src_ip) == 0);
static_assert(offsetof(FourTuple, dst_ip) == 4);
static_assert(offsetof(FourTuple, src_port) == 8);
static_assert(offsetof(FourTuple, dst_port) == 10);
static_assert(sizeof(FourTuple) == 12);
static_assert(offsetof(PacketRecord, ts) == 0);
static_assert(offsetof(PacketRecord, tuple) == 8);
static_assert(offsetof(PacketRecord, seq) == 20);
static_assert(offsetof(PacketRecord, ack) == 24);
static_assert(offsetof(PacketRecord, payload) == 28);
static_assert(offsetof(PacketRecord, flags) == 30);
static_assert(offsetof(PacketRecord, outbound) == 31);
static_assert(offsetof(TruthSample, tuple) == 0);
static_assert(offsetof(TruthSample, eack) == 12);
static_assert(offsetof(TruthSample, seq_ts) == 16);
static_assert(offsetof(TruthSample, ack_ts) == 24);

template <typename T>
constexpr T swap_bytes(T value) {
  T swapped = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    swapped = static_cast<T>((swapped << 8) | (value & 0xFF));
    value = static_cast<T>(value >> 8);
  }
  return swapped;
}

// Little-endian loads and stores of single fields (the header, the truth
// check): one move, plus a byte swap compiled only on big-endian hosts.
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

// Converts a record between wire and host byte order, field by field (an
// involution). Only big-endian hosts call these; `outbound` and `flags`
// are single bytes and never swapped.
void swap_tuple(FourTuple& tuple) {
  tuple.src_ip = Ipv4Addr{swap_bytes(tuple.src_ip.value())};
  tuple.dst_ip = Ipv4Addr{swap_bytes(tuple.dst_ip.value())};
  tuple.src_port = swap_bytes(tuple.src_port);
  tuple.dst_port = swap_bytes(tuple.dst_port);
}

[[maybe_unused]] void swap_fields(PacketRecord& packet) {
  packet.ts = swap_bytes(packet.ts);
  swap_tuple(packet.tuple);
  packet.seq = swap_bytes(packet.seq);
  packet.ack = swap_bytes(packet.ack);
  packet.payload = swap_bytes(packet.payload);
}

[[maybe_unused]] void swap_fields(TruthSample& truth) {
  swap_tuple(truth.tuple);
  truth.eack = swap_bytes(truth.eack);
  truth.seq_ts = swap_bytes(truth.seq_ts);
  truth.ack_ts = swap_bytes(truth.ack_ts);
}

// The validity check, on a record's wire bytes: a packet's direction flag
// is 0 or 1, and a truth RTT is non-negative (an ack observed before its
// data packet is an impossible record, not a measurement).
template <typename Record>
bool valid_record(const std::uint8_t* record) {
  if constexpr (std::is_same_v<Record, PacketRecord>) {
    return record[offsetof(PacketRecord, outbound)] <= 1;
  } else {
    return load_le<std::uint64_t>(record + offsetof(TruthSample, ack_ts)) >=
           load_le<std::uint64_t>(record + offsetof(TruthSample, seq_ts));
  }
}

template <typename Record>
void encode_block(std::span<const Record> records, std::uint8_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!records.empty()) {
      std::memcpy(out, records.data(), records.size_bytes());
    }
  } else {
    for (Record record : records) {
      swap_fields(record);
      std::memcpy(out, &record, kRecordBytes);
      out += kRecordBytes;
    }
  }
}

/// The one validity scan: valid runs are moved down over the invalid
/// records before them with one memmove each, so a clean block moves
/// nothing. Every access goes through the block's bytes until a record
/// has passed.
template <typename Record>
BlockDecode decode_block(std::span<Record> records) {
  auto* bytes = reinterpret_cast<std::uint8_t*>(records.data());
  const std::size_t n = records.size();
  const auto valid = [bytes](std::size_t i) {
    return valid_record<Record>(bytes + i * kRecordBytes);
  };
  std::size_t i = 0;
  while (i < n && valid(i)) ++i;
  BlockDecode result{i, i};
  while (i < n) {
    while (i < n && !valid(i)) ++i;
    const std::size_t run = i;
    while (i < n && valid(i)) ++i;
    std::memmove(bytes + result.kept * kRecordBytes,
                 bytes + run * kRecordBytes, (i - run) * kRecordBytes);
    result.kept += i - run;
  }
  if constexpr (std::endian::native == std::endian::big) {
    for (Record& record : records.first(result.kept)) swap_fields(record);
  }
  return result;
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

/// What reading one section left behind.
struct SectionRead {
  std::uint64_t kept = 0;     ///< valid records appended
  std::uint64_t skipped = 0;  ///< invalid records dropped
  std::uint64_t missing = 0;  ///< declared records the stream ended before
  TraceError damage;          ///< the first bad record or the truncation
};

/// Reads a section of `count` declared records, starting at stream offset
/// `offset`, onto the end of `records`. Each block of up to kBlockRecords
/// records lands in the vector's storage by one istream::read, never past
/// the section's last record, and is decoded there. With `stop_at_bad`
/// (strict mode) the read ends at the first block holding a bad record.
template <typename Record>
SectionRead read_section(std::istream& in, std::uint64_t offset,
                         std::uint64_t count, bool stop_at_bad,
                         TraceErrorCode truncated,
                         std::vector<Record>& records) {
  SectionRead section;
  std::uint64_t done = 0;
  while (done < count) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(count - done, kBlockRecords));
    const std::size_t base = records.size();
    records.resize(base + want);
    in.read(reinterpret_cast<char*>(records.data() + base),
            static_cast<std::streamsize>(want * kRecordBytes));
    const auto got = static_cast<std::size_t>(in.gcount()) / kRecordBytes;
    const BlockDecode block =
        decode_block(std::span<Record>(records).subspan(base, got));
    records.resize(base + block.kept);
    section.kept += block.kept;
    if (block.kept < got) {
      if (!section.damage) {
        section.damage = {TraceErrorCode::kBadFieldValue,
                          offset + (done + block.first_bad) * kRecordBytes};
      }
      section.skipped += got - block.kept;
      if (stop_at_bad) return section;
    }
    done += got;
    if (got < want) {
      if (!section.damage) {
        section.damage = {truncated, offset + done * kRecordBytes};
      }
      section.missing = count - done;
      return section;
    }
  }
  return section;
}

/// Writes a section a block at a time: each block of up to kBlockRecords
/// records is encoded into `block` and written with one ostream::write.
template <typename Record>
void write_section(const std::vector<Record>& records,
                   std::vector<std::uint8_t>& block, std::ostream& out) {
  const std::span<const Record> all(records);
  for (std::size_t first = 0; first < all.size(); first += kBlockRecords) {
    const auto chunk = all.subspan(first,
                                   std::min(kBlockRecords, all.size() - first));
    encode_block(chunk, block.data());
    out.write(reinterpret_cast<const char*>(block.data()),
              static_cast<std::streamsize>(chunk.size_bytes()));
  }
}

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

void encode_records(std::span<const PacketRecord> records,
                    std::uint8_t* out) {
  encode_block(records, out);
}

void encode_records(std::span<const TruthSample> records, std::uint8_t* out) {
  encode_block(records, out);
}

BlockDecode decode_records(std::span<PacketRecord> records) {
  return decode_block(records);
}

void encode_packet_record(const PacketRecord& packet, std::uint8_t* out) {
  encode_block(std::span(&packet, 1), out);
}

bool decode_packet_record(const std::uint8_t* in, PacketRecord& packet) {
  PacketRecord record;
  std::memcpy(&record, in, kRecordBytes);
  if (decode_block(std::span(&record, 1)).kept == 0) return false;
  packet = record;
  return true;
}

bool write_binary(const Trace& trace, std::ostream& out) {
  std::array<std::uint8_t, kHeaderBytes> header{};
  std::memcpy(header.data(), kMagic.data(), kMagic.size());
  store_le<std::uint32_t>(header.data() + 4, kTraceFormatVersion);
  store_le<std::uint64_t>(header.data() + 8, trace.packets().size());
  store_le<std::uint64_t>(header.data() + 16, trace.truth().size());
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  std::vector<std::uint8_t> block(kBlockRecords * kRecordBytes);
  write_section(trace.packets(), block, out);
  write_section(trace.truth(), block, out);
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
  // Reservations are capped by the stream size, or at 2^20 records on a
  // stream that cannot tell its size.
  const auto reservation = [&remaining](std::uint64_t count) {
    return static_cast<std::size_t>(std::min(
        count, remaining.has_value() ? *remaining / kRecordBytes
                                     : std::uint64_t{1} << 20));
  };
  const bool strict = !options.tolerant;
  Trace trace;

  // --- Packet records, then truth records. A strict read fails at the
  // first damage; a tolerant one keeps what was valid and counts the rest.
  trace.packets().reserve(reservation(packet_count));
  const SectionRead packets =
      read_section(in, kHeaderBytes, packet_count, strict,
                   TraceErrorCode::kTruncatedPacket, trace.packets());
  if (strict && packets.damage) {
    return fail(packets.damage.code, packets.damage.offset);
  }
  if (!result.error) result.error = packets.damage;
  result.packets_read = packets.kept;
  result.skipped_records = packets.skipped;
  if (packets.missing != 0) {
    result.lost_records = packets.missing + truth_count;
    result.trace = std::move(trace);
    return result;
  }

  trace.truth().reserve(reservation(truth_count));
  const SectionRead truth =
      read_section(in, kHeaderBytes + packet_count * kRecordBytes, truth_count,
                   strict, TraceErrorCode::kTruncatedTruth, trace.truth());
  if (strict && truth.damage) {
    return fail(truth.damage.code, truth.damage.offset);
  }
  if (!result.error) result.error = truth.damage;
  result.truth_read = truth.kept;
  result.skipped_records += truth.skipped;
  result.lost_records = truth.missing;
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
