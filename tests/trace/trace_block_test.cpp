// Block-decode differential: the .dtrc reader and writer move whole blocks
// of records per stream call, and must behave exactly like a reader and
// writer that move one field at a time. The per-field implementations live
// here as the oracle. Every case — clean reads, cuts at and around every
// block boundary, seeded random cuts, and corrupt records at block edges —
// must produce the oracle's TraceReadResult field for field, in strict and
// tolerant mode, on a seekable stream and on a non-seekable one that
// returns short reads. The file reader cuts each section into slices read
// side by side; with the slice count forced, damage and cuts at and around
// every slice edge must come back as the oracle's result too, and any
// slice count must equal one slice.
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/random.hpp"

namespace dart::trace {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the per-field writer and reader.

constexpr std::array<char, 4> kOracleMagic = {'D', 'T', 'R', 'C'};

template <typename T>
void put(std::ostream& out, T value) {
  std::array<char, sizeof(T)> bytes;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((static_cast<std::uint64_t>(value) >>
                                  (8 * i)) & 0xFF);
  }
  out.write(bytes.data(), bytes.size());
}

void put_tuple(std::ostream& out, const FourTuple& tuple) {
  put<std::uint32_t>(out, tuple.src_ip.value());
  put<std::uint32_t>(out, tuple.dst_ip.value());
  put<std::uint16_t>(out, tuple.src_port);
  put<std::uint16_t>(out, tuple.dst_port);
}

std::string oracle_write(const Trace& trace) {
  std::stringstream out;
  out.write(kOracleMagic.data(), kOracleMagic.size());
  put<std::uint32_t>(out, kTraceFormatVersion);
  put<std::uint64_t>(out, trace.packets().size());
  put<std::uint64_t>(out, trace.truth().size());
  for (const PacketRecord& p : trace.packets()) {
    put<std::uint64_t>(out, p.ts);
    put_tuple(out, p.tuple);
    put<std::uint32_t>(out, p.seq);
    put<std::uint32_t>(out, p.ack);
    put<std::uint16_t>(out, p.payload);
    put<std::uint8_t>(out, p.flags);
    put<std::uint8_t>(out, p.outbound ? 1 : 0);
  }
  for (const TruthSample& s : trace.truth()) {
    put_tuple(out, s.tuple);
    put<std::uint32_t>(out, s.eack);
    put<std::uint64_t>(out, s.seq_ts);
    put<std::uint64_t>(out, s.ack_ts);
  }
  return out.str();
}

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  template <typename T>
  bool get(T& value) {
    std::array<char, sizeof(T)> bytes;
    if (!in_.read(bytes.data(), bytes.size())) return false;
    offset_ += sizeof(T);
    std::uint64_t accum = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      accum |= static_cast<std::uint64_t>(
                   static_cast<std::uint8_t>(bytes[i]))
               << (8 * i);
    }
    value = static_cast<T>(accum);
    return true;
  }

  bool get_tuple(FourTuple& tuple) {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    if (!get(src) || !get(dst) || !get(tuple.src_port) ||
        !get(tuple.dst_port)) {
      return false;
    }
    tuple.src_ip = Ipv4Addr{src};
    tuple.dst_ip = Ipv4Addr{dst};
    return true;
  }

  bool get_magic(std::array<char, 4>& magic) {
    if (!in_.read(magic.data(), magic.size())) return false;
    offset_ += magic.size();
    return true;
  }

  std::uint64_t offset() const { return offset_; }

  std::optional<std::uint64_t> remaining() {
    const auto pos = in_.tellg();
    if (pos == std::istream::pos_type(-1)) return std::nullopt;
    in_.seekg(0, std::ios::end);
    const auto end = in_.tellg();
    in_.seekg(pos);
    if (end == std::istream::pos_type(-1) || end < pos) return std::nullopt;
    return static_cast<std::uint64_t>(end - pos);
  }

 private:
  std::istream& in_;
  std::uint64_t offset_ = 0;
};

TraceReadResult oracle_fail(TraceErrorCode code, std::uint64_t offset) {
  TraceReadResult result;
  result.error = {code, offset};
  return result;
}

TraceReadResult oracle_read(std::istream& in, const TraceReadOptions& options) {
  Reader reader(in);
  if (!in.good()) return oracle_fail(TraceErrorCode::kIoError, 0);
  std::array<char, 4> magic;
  if (!reader.get_magic(magic)) {
    return oracle_fail(TraceErrorCode::kTruncatedHeader, reader.offset());
  }
  if (magic != kOracleMagic) return oracle_fail(TraceErrorCode::kBadMagic, 0);
  std::uint32_t version = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t truth_count = 0;
  if (!reader.get(version)) {
    return oracle_fail(TraceErrorCode::kTruncatedHeader, reader.offset());
  }
  if (version != kTraceFormatVersion) {
    return oracle_fail(TraceErrorCode::kBadVersion, reader.offset() - 4);
  }
  if (!reader.get(packet_count) || !reader.get(truth_count)) {
    return oracle_fail(TraceErrorCode::kTruncatedHeader, reader.offset());
  }
  const std::optional<std::uint64_t> remaining = reader.remaining();
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
    return oracle_fail(TraceErrorCode::kImpossibleCount, kHeaderBytes - 16);
  }
  TraceReadResult result;
  if (counts_impossible) {
    result.error = {TraceErrorCode::kImpossibleCount, kHeaderBytes - 16};
  }
  Trace trace;
  for (std::uint64_t i = 0; i < packet_count; ++i) {
    const std::uint64_t record_start = reader.offset();
    PacketRecord p;
    std::uint8_t outbound = 0;
    if (!reader.get(p.ts) || !reader.get_tuple(p.tuple) ||
        !reader.get(p.seq) || !reader.get(p.ack) || !reader.get(p.payload) ||
        !reader.get(p.flags) || !reader.get(outbound)) {
      if (!options.tolerant) {
        return oracle_fail(TraceErrorCode::kTruncatedPacket, record_start);
      }
      if (!result.error) {
        result.error = {TraceErrorCode::kTruncatedPacket, record_start};
      }
      result.lost_records += (packet_count - i) + truth_count;
      result.trace = std::move(trace);
      return result;
    }
    if (outbound > 1) {
      if (!options.tolerant) {
        return oracle_fail(TraceErrorCode::kBadFieldValue, record_start);
      }
      if (!result.error) {
        result.error = {TraceErrorCode::kBadFieldValue, record_start};
      }
      ++result.skipped_records;
      continue;
    }
    p.outbound = outbound != 0;
    trace.add(p);
    ++result.packets_read;
  }
  for (std::uint64_t i = 0; i < truth_count; ++i) {
    const std::uint64_t record_start = reader.offset();
    TruthSample s;
    if (!reader.get_tuple(s.tuple) || !reader.get(s.eack) ||
        !reader.get(s.seq_ts) || !reader.get(s.ack_ts)) {
      if (!options.tolerant) {
        return oracle_fail(TraceErrorCode::kTruncatedTruth, record_start);
      }
      if (!result.error) {
        result.error = {TraceErrorCode::kTruncatedTruth, record_start};
      }
      result.lost_records += truth_count - i;
      result.trace = std::move(trace);
      return result;
    }
    if (s.ack_ts < s.seq_ts) {
      if (!options.tolerant) {
        return oracle_fail(TraceErrorCode::kBadFieldValue, record_start);
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

// ---------------------------------------------------------------------------
// Streams and fixtures.

/// A non-seekable stream buffer that hands out at most 7 bytes per refill
/// (cycling 1..7) and refuses every seek, like a pipe with short reads.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (pos_ >= bytes_.size()) return traits_type::eof();
    const std::size_t n =
        std::min<std::size_t>(1 + refills_++ % 7, bytes_.size() - pos_);
    char* base = bytes_.data() + pos_;
    setg(base, base, base + n);
    pos_ += n;
    return traits_type::to_int_type(*base);
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
  std::size_t refills_ = 0;
};

// Both sections span more than two blocks, and neither ends on a block
// boundary.
constexpr std::size_t kPackets = 2 * kBlockRecords + 37;
constexpr std::size_t kTruth = 2 * kBlockRecords + 19;

Trace multi_block_trace() {
  Trace trace;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const auto n = static_cast<std::uint32_t>(i);
    PacketRecord p;
    p.ts = std::uint64_t{0x0102030405060708} + i * 977;
    p.tuple = FourTuple{Ipv4Addr{0x0A000000U + n}, Ipv4Addr{0xC0A80000U ^ n},
                        static_cast<std::uint16_t>(1024 + n),
                        static_cast<std::uint16_t>(65535 - n)};
    p.seq = 0xFFFFFF00U + n * 1460;
    p.ack = n * 7919;
    p.payload = static_cast<std::uint16_t>(n % 1500);
    p.flags = static_cast<std::uint8_t>(n & 0x3F);
    p.outbound = (i % 3) == 0;
    trace.add(p);
  }
  for (std::size_t i = 0; i < kTruth; ++i) {
    const auto n = static_cast<std::uint32_t>(i);
    TruthSample s;
    s.tuple = FourTuple{Ipv4Addr{0xAC100000U + n}, Ipv4Addr{0x08080808U},
                        static_cast<std::uint16_t>(40000 + n), 443};
    s.eack = 0xFFFFF000U + n * 3;
    s.seq_ts = (std::uint64_t{1} << 40) | (i * 1000);
    s.ack_ts = s.seq_ts + 250 + i;
    trace.add_truth(s);
  }
  return trace;
}

const std::string& multi_block_bytes() {
  static const std::string bytes = oracle_write(multi_block_trace());
  return bytes;
}

std::uint64_t packet_offset(std::size_t index) {
  return kHeaderBytes + index * kPacketRecordBytes;
}

std::uint64_t truth_offset(std::size_t index) {
  return packet_offset(kPackets) + index * kTruthRecordBytes;
}

void expect_same(const TraceReadResult& got, const TraceReadResult& want,
                 const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.error.code, want.error.code);
  EXPECT_EQ(got.error.offset, want.error.offset);
  EXPECT_EQ(got.packets_read, want.packets_read);
  EXPECT_EQ(got.truth_read, want.truth_read);
  EXPECT_EQ(got.skipped_records, want.skipped_records);
  EXPECT_EQ(got.lost_records, want.lost_records);
  ASSERT_EQ(got.trace.has_value(), want.trace.has_value());
  if (want.trace.has_value()) {
    EXPECT_TRUE(got.trace->packets() == want.trace->packets());
    EXPECT_TRUE(got.trace->truth() == want.trace->truth());
  }
}

/// Reads `bytes` with the block reader and with the oracle, strict and
/// tolerant, through a seekable and a non-seekable stream, and compares
/// every pair.
void expect_matches_oracle(const std::string& bytes, const std::string& label) {
  for (const bool tolerant : {false, true}) {
    const TraceReadOptions options{.tolerant = tolerant};
    const std::string mode = tolerant ? " tolerant" : " strict";
    {
      std::stringstream a(bytes);
      std::stringstream b(bytes);
      expect_same(read_binary_checked(a, options), oracle_read(b, options),
                  label + mode + " seekable");
    }
    {
      TrickleBuf abuf(bytes);
      TrickleBuf bbuf(bytes);
      std::istream a(&abuf);
      std::istream b(&bbuf);
      expect_same(read_binary_checked(a, options), oracle_read(b, options),
                  label + mode + " non-seekable");
    }
  }
}

/// Cut offsets at, and within ±31 bytes of, every block boundary of both
/// sections (section starts and ends included).
std::vector<std::size_t> boundary_cuts(std::size_t size) {
  std::vector<std::uint64_t> boundaries;
  for (std::size_t block = 0; block * kBlockRecords <= kPackets; ++block) {
    boundaries.push_back(packet_offset(block * kBlockRecords));
  }
  for (std::size_t block = 0; block * kBlockRecords <= kTruth; ++block) {
    boundaries.push_back(truth_offset(block * kBlockRecords));
  }
  boundaries.push_back(packet_offset(kPackets));
  boundaries.push_back(truth_offset(kTruth));
  std::vector<std::size_t> cuts;
  for (const std::uint64_t boundary : boundaries) {
    for (int delta = -31; delta <= 31; ++delta) {
      const auto cut = static_cast<std::int64_t>(boundary) + delta;
      if (cut >= 0 && static_cast<std::size_t>(cut) <= size) {
        cuts.push_back(static_cast<std::size_t>(cut));
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

// ---------------------------------------------------------------------------
// Cases.

TEST(TraceBlock, WriterBytesMatchOracle) {
  const Trace trace = multi_block_trace();
  std::stringstream out;
  ASSERT_TRUE(write_binary(trace, out));
  EXPECT_TRUE(out.str() == multi_block_bytes());

  std::stringstream empty;
  ASSERT_TRUE(write_binary(Trace{}, empty));
  EXPECT_EQ(empty.str(), oracle_write(Trace{}));

  // Exactly one full block of packets and no truth: the writer's block
  // holds the header too, so this straddles a write.
  Trace one_block;
  one_block.packets().assign(trace.packets().begin(),
                             trace.packets().begin() + kBlockRecords);
  std::stringstream block;
  ASSERT_TRUE(write_binary(one_block, block));
  EXPECT_TRUE(block.str() == oracle_write(one_block));
}

TEST(TraceBlock, CleanReadMatchesOracle) {
  const std::string& bytes = multi_block_bytes();
  expect_matches_oracle(bytes, "clean");
  expect_matches_oracle(bytes + "trailing junk", "trailing bytes");
  std::stringstream in(bytes);
  const TraceReadResult result = read_binary_checked(in);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.trace->packets() == multi_block_trace().packets());
  EXPECT_TRUE(result.trace->truth() == multi_block_trace().truth());
}

TEST(TraceBlock, ReaderStopsAfterTheLastRecord) {
  // Like the per-field reader, the block reader consumes exactly the
  // declared records, so a trace embedded in a larger stream leaves the
  // bytes after it unread — seekable or not.
  const std::string stream = multi_block_bytes() + "NEXT";
  std::stringstream seekable(stream);
  ASSERT_TRUE(read_binary_checked(seekable).ok());
  std::string rest;
  seekable >> rest;
  EXPECT_EQ(rest, "NEXT");

  TrickleBuf trickle(stream);
  std::istream piped(&trickle);
  ASSERT_TRUE(read_binary_checked(piped).ok());
  rest.clear();
  piped >> rest;
  EXPECT_EQ(rest, "NEXT");
}

TEST(TraceBlock, HeaderCutsMatchOracle) {
  const std::string& bytes = multi_block_bytes();
  for (std::size_t cut = 0; cut <= kHeaderBytes; ++cut) {
    expect_matches_oracle(bytes.substr(0, cut),
                          "header cut at " + std::to_string(cut));
  }
}

TEST(TraceBlock, CutsAtBlockBoundariesMatchOracle) {
  const std::string& bytes = multi_block_bytes();
  const std::vector<std::size_t> cuts = boundary_cuts(bytes.size());
  ASSERT_GT(cuts.size(), 6U * 63U);  // seven boundaries, some clipped
  for (const std::size_t cut : cuts) {
    expect_matches_oracle(bytes.substr(0, cut),
                          "cut at " + std::to_string(cut));
  }
}

TEST(TraceBlock, RandomCutsMatchOracle) {
  const std::string& bytes = multi_block_bytes();
  Rng rng(0xB10C);
  for (int trial = 0; trial < 40; ++trial) {
    const auto cut =
        static_cast<std::size_t>(rng.uniform_int(kHeaderBytes, bytes.size()));
    expect_matches_oracle(bytes.substr(0, cut),
                          "random cut at " + std::to_string(cut));
  }
}

TEST(TraceBlock, CorruptRecordsAtBlockEdgesMatchOracle) {
  // First and last record of every block, and the final record.
  std::vector<std::size_t> packet_edges;
  for (std::size_t first = 0; first < kPackets; first += kBlockRecords) {
    packet_edges.push_back(first);
    packet_edges.push_back(std::min(first + kBlockRecords, kPackets) - 1);
  }
  std::vector<std::size_t> truth_edges;
  for (std::size_t first = 0; first < kTruth; first += kBlockRecords) {
    truth_edges.push_back(first);
    truth_edges.push_back(std::min(first + kBlockRecords, kTruth) - 1);
  }
  ASSERT_EQ(packet_edges.back(), kPackets - 1);
  ASSERT_EQ(truth_edges.back(), kTruth - 1);

  std::string all = multi_block_bytes();
  for (const std::size_t index : packet_edges) {
    std::string corrupt = multi_block_bytes();
    const std::uint64_t outbound_byte = packet_offset(index) + 31;
    corrupt[outbound_byte] = 0x05;  // outbound > 1
    all[outbound_byte] = 0x05;
    expect_matches_oracle(corrupt, "bad packet " + std::to_string(index));
  }
  for (const std::size_t index : truth_edges) {
    // Negative RTT: clearing bits 40..47 of ack_ts drops it below seq_ts
    // (every seq_ts has bit 40 set).
    std::string corrupt = multi_block_bytes();
    const std::uint64_t ack_ts_bits_40_47 = truth_offset(index) + 24 + 5;
    corrupt[ack_ts_bits_40_47] = 0;
    all[ack_ts_bits_40_47] = 0;
    expect_matches_oracle(corrupt, "bad truth " + std::to_string(index));
  }
  expect_matches_oracle(all, "every edge corrupt");

  std::stringstream in(all);
  const TraceReadResult salvaged = read_binary_checked(in, {.tolerant = true});
  EXPECT_EQ(salvaged.skipped_records, packet_edges.size() + truth_edges.size());
  EXPECT_EQ(salvaged.error.code, TraceErrorCode::kBadFieldValue);
  EXPECT_EQ(salvaged.error.offset, packet_offset(0));

  // A corrupt edge record inside a truncated section: the first damage
  // wins, exactly as in the oracle.
  for (const std::size_t cut :
       {packet_offset(kBlockRecords) + 5, truth_offset(kBlockRecords) + 17}) {
    expect_matches_oracle(all.substr(0, cut),
                          "corrupt then cut at " + std::to_string(cut));
  }
}

/// The outbound byte of packet record `i` in the validity sweep: every
/// byte value in turn through the first block (so runs of 254 adjacent bad
/// records), then valid records with bad runs at both edges of the second
/// block, and a bad final record.
std::uint8_t sweep_outbound(std::size_t i, std::uint8_t valid) {
  const auto bad = static_cast<std::uint8_t>(2 + i % 254);
  if (i < kBlockRecords) return static_cast<std::uint8_t>(i % 256);
  if (i < kBlockRecords + 3 || (i >= 2 * kBlockRecords - 3 &&
                                i < 2 * kBlockRecords) ||
      i == kPackets - 1) {
    return bad;
  }
  return valid;
}

/// Truth records with ack_ts < seq_ts in the validity sweep: the first
/// record, a run inside the first block, both edges of the first block
/// boundary, and the final record.
bool sweep_bad_truth(std::size_t i) {
  return i == 0 || (i >= 100 && i < 105) || i == kBlockRecords - 1 ||
         i == kBlockRecords || i == kTruth - 1;
}

TEST(TraceBlock, ValiditySweepMatchesOracle) {
  std::string sweep = multi_block_bytes();
  std::size_t bad_packets = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    char& outbound = sweep[packet_offset(i) + 31];
    outbound = static_cast<char>(
        sweep_outbound(i, static_cast<std::uint8_t>(outbound)));
    if (static_cast<std::uint8_t>(outbound) > 1) ++bad_packets;
  }
  std::size_t bad_truth = 0;
  for (std::size_t i = 0; i < kTruth; ++i) {
    if (!sweep_bad_truth(i)) continue;
    sweep[truth_offset(i) + 24 + 5] = 0;  // ack_ts bits 40..47: below seq_ts
    ++bad_truth;
  }
  ASSERT_GT(bad_packets, 2 * 254U);
  expect_matches_oracle(sweep, "validity sweep");

  // Strict: the first bad record's offset, in either section.
  std::stringstream strict_in(sweep);
  const TraceReadResult strict = read_binary_checked(strict_in);
  EXPECT_FALSE(strict.trace.has_value());
  EXPECT_EQ(strict.error.code, TraceErrorCode::kBadFieldValue);
  EXPECT_EQ(strict.error.offset, packet_offset(2));  // outbound byte 2
  std::string bad_truth_only = multi_block_bytes();
  bad_truth_only[truth_offset(kBlockRecords - 1) + 24 + 5] = 0;
  std::stringstream truth_in(bad_truth_only);
  const TraceReadResult truth_strict = read_binary_checked(truth_in);
  EXPECT_EQ(truth_strict.error.code, TraceErrorCode::kBadFieldValue);
  EXPECT_EQ(truth_strict.error.offset, truth_offset(kBlockRecords - 1));

  // Tolerant: every bad record skipped, and the kept ones are the oracle's.
  std::stringstream tolerant_in(sweep);
  std::stringstream oracle_in(sweep);
  const TraceReadResult tolerant =
      read_binary_checked(tolerant_in, {.tolerant = true});
  const TraceReadResult want = oracle_read(oracle_in, {.tolerant = true});
  ASSERT_TRUE(tolerant.trace.has_value());
  EXPECT_EQ(tolerant.skipped_records, bad_packets + bad_truth);
  EXPECT_EQ(tolerant.packets_read, kPackets - bad_packets);
  EXPECT_EQ(tolerant.truth_read, kTruth - bad_truth);
  EXPECT_EQ(tolerant.error.offset, packet_offset(2));
  EXPECT_TRUE(tolerant.trace->packets() == want.trace->packets());
  EXPECT_TRUE(tolerant.trace->truth() == want.trace->truth());
}


// ---------------------------------------------------------------------------
// Slices: the file reader with a forced slice count.

/// A temporary .dtrc file, removed when the test is done with it.
class TempTrace {
 public:
  explicit TempTrace(const std::string& bytes)
      : path_(::testing::TempDir() + "trace_block_" +
              std::to_string(::getpid()) + ".dtrc") {
    std::ofstream out(path_, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.flush());
  }
  ~TempTrace() { std::remove(path_.c_str()); }
  TempTrace(const TempTrace&) = delete;
  TempTrace& operator=(const TempTrace&) = delete;

  const std::string& path() const { return path_; }

  TraceReadResult read(const TraceReadOptions& options,
                       std::uint64_t slices) const {
    return detail::read_binary_checked_file(path_, options, slices);
  }

 private:
  std::string path_;
};

/// Section index of the first record of slice `i` of `k` over `n` records.
std::size_t slice_edge(std::size_t n, std::size_t k, std::size_t i) {
  return n * i / k;
}

constexpr std::array<std::uint64_t, 5> kSliceCounts = {1, 2, 3, 4, 7};

/// Reads `bytes` from a file in every slice count of kSliceCounts, strict
/// and tolerant, and compares each result with the oracle's; the default
/// choice and the public entry point must agree with one slice too.
void expect_slices_match_oracle(const std::string& bytes,
                                const std::string& label) {
  const TempTrace file(bytes);
  for (const bool tolerant : {false, true}) {
    const TraceReadOptions options{.tolerant = tolerant};
    const std::string mode = tolerant ? " tolerant" : " strict";
    std::stringstream in(bytes);
    const TraceReadResult want = oracle_read(in, options);
    for (const std::uint64_t slices : kSliceCounts) {
      expect_same(file.read(options, slices), want,
                  label + mode + " in " + std::to_string(slices) +
                      " slices");
    }
    expect_same(file.read(options, 0), want, label + mode + " default");
  }
}

/// Marks packet record `index` bad (outbound byte 5).
void corrupt_packet(std::string& bytes, std::size_t index) {
  bytes[packet_offset(index) + 31] = 0x05;
}

/// Marks truth record `index` bad (ack_ts bits 40..47 cleared: below
/// seq_ts, which has bit 40 set).
void corrupt_truth(std::string& bytes, std::size_t index) {
  bytes[truth_offset(index) + 24 + 5] = 0;
}

/// Every slice edge of `n` records in 2, 3 and 4 slices, and the records
/// one either side of it, clipped to [0, n).
std::vector<std::size_t> around_slice_edges(std::size_t n) {
  std::vector<std::size_t> records;
  for (std::size_t k = 2; k <= 4; ++k) {
    for (std::size_t i = 1; i < k; ++i) {
      const std::size_t edge = slice_edge(n, k, i);
      for (const std::size_t r : {edge - 1, edge, edge + 1}) {
        if (r < n) records.push_back(r);
      }
    }
  }
  records.push_back(0);
  records.push_back(n - 1);
  std::sort(records.begin(), records.end());
  records.erase(std::unique(records.begin(), records.end()), records.end());
  return records;
}

TEST(TraceSlices, DamageAroundSliceEdgesMatchesOracle) {
  for (const std::size_t index : around_slice_edges(kPackets)) {
    std::string bytes = multi_block_bytes();
    corrupt_packet(bytes, index);
    const std::string label = "bad packet " + std::to_string(index);
    expect_slices_match_oracle(bytes, label);

    // Stated outright, not only through the oracle.
    const TempTrace file(bytes);
    for (const std::uint64_t slices : {2U, 3U, 4U}) {
      SCOPED_TRACE(label + " in " + std::to_string(slices) + " slices");
      const TraceReadResult strict = file.read({}, slices);
      EXPECT_FALSE(strict.trace.has_value());
      EXPECT_EQ(strict.error.code, TraceErrorCode::kBadFieldValue);
      EXPECT_EQ(strict.error.offset, packet_offset(index));
      const TraceReadResult tolerant = file.read({.tolerant = true}, slices);
      ASSERT_TRUE(tolerant.trace.has_value());
      EXPECT_EQ(tolerant.error.offset, packet_offset(index));
      EXPECT_EQ(tolerant.skipped_records, 1U);
      EXPECT_EQ(tolerant.lost_records, 0U);
      EXPECT_EQ(tolerant.packets_read, kPackets - 1);
      std::vector<PacketRecord> kept = multi_block_trace().packets();
      kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(index));
      EXPECT_TRUE(tolerant.trace->packets() == kept);
      EXPECT_TRUE(tolerant.trace->truth() == multi_block_trace().truth());
    }
  }
  for (const std::size_t index : around_slice_edges(kTruth)) {
    std::string bytes = multi_block_bytes();
    corrupt_truth(bytes, index);
    const std::string label = "bad truth " + std::to_string(index);
    expect_slices_match_oracle(bytes, label);

    const TempTrace file(bytes);
    for (const std::uint64_t slices : {2U, 3U, 4U}) {
      SCOPED_TRACE(label + " in " + std::to_string(slices) + " slices");
      const TraceReadResult strict = file.read({}, slices);
      EXPECT_EQ(strict.error.code, TraceErrorCode::kBadFieldValue);
      EXPECT_EQ(strict.error.offset, truth_offset(index));
      const TraceReadResult tolerant = file.read({.tolerant = true}, slices);
      ASSERT_TRUE(tolerant.trace.has_value());
      EXPECT_EQ(tolerant.skipped_records, 1U);
      EXPECT_EQ(tolerant.truth_read, kTruth - 1);
      std::vector<TruthSample> kept = multi_block_trace().truth();
      kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(index));
      EXPECT_TRUE(tolerant.trace->truth() == kept);
      EXPECT_TRUE(tolerant.trace->packets() == multi_block_trace().packets());
    }
  }
}

TEST(TraceSlices, DamageInEverySliceReportsTheLowestAndSumsTheRest) {
  // Two bad records per slice, in both sections, for 4 slices: strict
  // mode names the lowest-offset one, tolerant mode skips all of them.
  std::string bytes = multi_block_bytes();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t packet = slice_edge(kPackets, 4, i);
    corrupt_packet(bytes, packet + 1);
    corrupt_packet(bytes, packet + 17);
    const std::size_t truth = slice_edge(kTruth, 4, i);
    corrupt_truth(bytes, truth + 2);
    corrupt_truth(bytes, truth + 3);
    bad += 4;
  }
  expect_slices_match_oracle(bytes, "damage in every slice");
  const TempTrace file(bytes);
  const TraceReadResult strict = file.read({}, 4);
  EXPECT_EQ(strict.error.offset, packet_offset(1));
  const TraceReadResult tolerant = file.read({.tolerant = true}, 4);
  EXPECT_EQ(tolerant.skipped_records, bad);
  EXPECT_EQ(tolerant.packets_read + tolerant.truth_read,
            kPackets + kTruth - bad);
  EXPECT_EQ(tolerant.error.offset, packet_offset(1));
}

TEST(TraceSlices, FilesShorterThanTheirHeaderMatchOracle) {
  // Cut the file at every 2-, 3- and 4-slice edge of either section ±1
  // record, and 1 byte short of each (inside the record before); each cut
  // is also a fresh slicing of the records the file still holds.
  const std::string& bytes = multi_block_bytes();
  std::vector<std::uint64_t> cuts;
  for (const std::size_t edge : around_slice_edges(kPackets)) {
    cuts.push_back(packet_offset(edge));
  }
  for (const std::size_t edge : around_slice_edges(kTruth)) {
    cuts.push_back(truth_offset(edge));
  }
  cuts.push_back(packet_offset(kPackets));
  cuts.push_back(truth_offset(kTruth) - 1);
  for (const std::uint64_t cut : cuts) {
    for (const std::int64_t delta : {-1, 0}) {
      const auto at = static_cast<std::size_t>(static_cast<std::int64_t>(cut) +
                                               delta);
      expect_slices_match_oracle(bytes.substr(0, at),
                                 "cut at " + std::to_string(at));
    }
  }
  // A truncated file whose kept part is damaged near a slice edge: the
  // bad record comes before the truncation, so it is the first damage.
  std::string damaged = bytes;
  corrupt_packet(damaged, slice_edge(kPackets / 2, 3, 1));
  expect_slices_match_oracle(damaged.substr(0, packet_offset(kPackets / 2)),
                             "damaged, cut inside the packets");
}

TEST(TraceSlices, FilesLongerThanTheirHeaderMatchOracle) {
  const std::string& bytes = multi_block_bytes();
  expect_slices_match_oracle(bytes + "x", "one trailing byte");
  expect_slices_match_oracle(bytes + bytes.substr(kHeaderBytes, 7 * 32 + 5),
                             "seven trailing records and a piece");
  // A header declaring fewer packets than the file holds: the surplus
  // packets are read as truth records, and the real truth is trailing.
  std::string fewer = bytes;
  const std::uint64_t declared = kPackets - 101;
  for (std::size_t i = 0; i < 8; ++i) {
    fewer[8 + i] = static_cast<char>((declared >> (8 * i)) & 0xFF);
  }
  expect_slices_match_oracle(fewer, "101 packets fewer declared");
}

TEST(TraceSlices, AnySliceCountEqualsOneSliceAndTheStreamReaders) {
  std::string sweep = multi_block_bytes();
  for (std::size_t i = 0; i < kPackets; i += 97) corrupt_packet(sweep, i);
  for (std::size_t i = 5; i < kTruth; i += 89) corrupt_truth(sweep, i);
  // A cut file is diagnosed up front (kImpossibleCount) only where the
  // input can tell its size, so there the pipe is held to the oracle.
  struct Input {
    std::string label;
    std::string bytes;
    bool whole;
  };
  const std::vector<Input> corpus = {
      {"clean", multi_block_bytes(), true},
      {"sweep", sweep, true},
      {"sweep cut in the truth", sweep.substr(0, truth_offset(kTruth / 3)),
       false},
      {"empty trace", oracle_write(Trace{}), true},
  };
  for (const auto& [label, bytes, whole] : corpus) {
    const TempTrace file(bytes);
    for (const bool tolerant : {false, true}) {
      const TraceReadOptions options{.tolerant = tolerant};
      const std::string mode = tolerant ? " tolerant" : " strict";
      const TraceReadResult one = file.read(options, 1);
      for (std::uint64_t slices = 2; slices <= 9; ++slices) {
        expect_same(file.read(options, slices), one,
                    label + mode + " " + std::to_string(slices) + " slices");
      }
      expect_same(read_binary_checked_file(file.path(), options), one,
                  label + mode + " default slices");
      std::stringstream seekable(bytes);
      expect_same(read_binary_checked(seekable, options), one,
                  label + mode + " seekable stream");
      TrickleBuf buf(bytes);
      std::istream piped(&buf);
      TrickleBuf oracle_buf(bytes);
      std::istream oracle_piped(&oracle_buf);
      expect_same(read_binary_checked(piped, options),
                  whole ? one : oracle_read(oracle_piped, options),
                  label + mode + " non-seekable stream");
    }
  }
}

TEST(TraceSlices, DefaultSlicingOfALargeFileEqualsOneSlice) {
  // ~9.5 MB: past the size below which a file is read as one slice, so
  // where the host has the cores its sections are sliced and read side by
  // side.
  const Trace base = multi_block_trace();
  Trace large;
  for (int copy = 0; copy < 36; ++copy) {
    large.packets().insert(large.packets().end(), base.packets().begin(),
                           base.packets().end());
    large.truth().insert(large.truth().end(), base.truth().begin(),
                         base.truth().end());
  }
  std::stringstream out;
  ASSERT_TRUE(write_binary(large, out));
  std::string bytes = out.str();
  ASSERT_GT(bytes.size(), std::size_t{6} << 20);
  const std::size_t packets = large.packets().size();
  for (const std::size_t index : {std::size_t{7}, packets / 2, packets - 3}) {
    bytes[kHeaderBytes + index * kPacketRecordBytes + 31] = 0x09;
  }
  bytes[kHeaderBytes + packets * kPacketRecordBytes + 100 * 32 + 24 + 5] = 0;
  for (const auto& [label, input] :
       std::vector<std::pair<std::string, std::string>>{
           {"clean", out.str()},
           {"damaged", bytes},
           {"cut in the truth", bytes.substr(0, bytes.size() - 4000)}}) {
    const TempTrace file(input);
    for (const bool tolerant : {false, true}) {
      const TraceReadOptions options{.tolerant = tolerant};
      expect_same(read_binary_checked_file(file.path(), options),
                  file.read(options, 1),
                  label + (tolerant ? " tolerant" : " strict"));
    }
  }
  const TempTrace clean(out.str());
  const TraceReadResult read = read_binary_checked_file(clean.path());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.trace->packets() == large.packets());
  EXPECT_TRUE(read.trace->truth() == large.truth());
}

TEST(TraceSlices, MissingFileIsAnIoError) {
  const TraceReadResult result = read_binary_checked_file(
      ::testing::TempDir() + "no_such_trace.dtrc");
  EXPECT_EQ(result.error.code, TraceErrorCode::kIoError);
  EXPECT_FALSE(result.trace.has_value());
}

}  // namespace
}  // namespace dart::trace
