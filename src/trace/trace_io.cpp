#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <exception>
#include <fstream>
#include <istream>
#include <ostream>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

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

/// Records moved per read: 256 KiB, so a one-slice read's chunk is still
/// in L2 from its zero-fill when its records land on it and when its
/// validity scan runs. (1 MiB chunks read an in-memory stream ~15 % slower,
/// 64 KiB ones a file ~20 % slower, both in BM_TraceRead*.)
constexpr std::size_t kChunkRecords = (std::size_t{1} << 18) / kRecordBytes;

/// A file is read in at most kMaxSlices parallel slices of at least
/// kMinSliceBytes each: a thread costs tens of microseconds to start, a
/// slice about half a millisecond to copy.
constexpr std::uint64_t kMinSliceBytes = std::uint64_t{2} << 20;
constexpr std::uint64_t kMaxSlices = 4;

/// Reservation for a section whose stream cannot tell its size: a hostile
/// header cannot demand more before its records arrive.
constexpr std::uint64_t kUnsizedReserveRecords = std::uint64_t{1} << 20;

/// Where the reader's bytes come from: a stream, read front to back, or a
/// file descriptor, read by position when the file can seek, so that
/// several slices of a section can read at once.
class ByteSource {
 public:
  explicit ByteSource(std::istream& in) : in_(&in) {}
  explicit ByteSource(int fd) : fd_(fd) {
    const off_t end = ::lseek(fd, 0, SEEK_END);
    if (end >= 0) size_ = static_cast<std::uint64_t>(end);
  }

  /// Reads may come at any offset, in any order, from several threads.
  bool positional() const { return in_ == nullptr && size_.has_value(); }

  /// Bytes from `offset` to the end of the input, when it can tell. A
  /// stream must stand at `offset`.
  std::optional<std::uint64_t> remaining(std::uint64_t offset) const {
    if (in_ != nullptr) return remaining_bytes(*in_);
    if (!size_.has_value()) return std::nullopt;
    return *size_ > offset ? *size_ - offset : 0;
  }

  /// Reads up to `bytes` bytes at input offset `offset` into `out` and
  /// returns how many it got: fewer only where the input ends or fails. A
  /// sequential source stands at `offset` already (its one reader reads in
  /// order).
  std::size_t read(std::uint64_t offset, void* out, std::size_t bytes) const {
    auto* dst = static_cast<char*>(out);
    if (in_ != nullptr) {
      in_->read(dst, static_cast<std::streamsize>(bytes));
      return static_cast<std::size_t>(in_->gcount());
    }
    std::size_t got = 0;
    while (got < bytes) {
      const ssize_t n =
          positional()
              ? ::pread(fd_, dst + got, bytes - got,
                        static_cast<off_t>(offset + got))
              : ::read(fd_, dst + got, bytes - got);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    return got;
  }

 private:
  std::istream* in_ = nullptr;
  int fd_ = -1;
  std::optional<std::uint64_t> size_;  ///< nullopt when the file cannot seek
};

/// One slice of a section: records [first, first + size) of it.
struct SliceRead {
  std::uint64_t first = 0;
  std::size_t size = 0;
  std::size_t got = 0;   ///< records the input held: `size` unless it ended
  std::size_t kept = 0;  ///< valid records, packed at the slice's front
  std::optional<std::uint64_t> first_bad;  ///< section index, if any
};

/// Reads a slice into `storage`, its span of the section's records, a chunk
/// at a time. Each chunk lands right after the slice's valid records so far
/// (over the gap its skipped records left) and is checked there by
/// decode_block, so the slice's valid records end packed at its front. With
/// `stop_at_bad` (strict mode) the slice ends at its first bad record.
template <typename Record>
void read_slice(const ByteSource& source, std::uint64_t offset,
                Record* storage, bool stop_at_bad, SliceRead& slice) {
  while (slice.got < slice.size) {
    const std::size_t want = std::min(slice.size - slice.got, kChunkRecords);
    Record* chunk = storage + slice.kept;
    const std::size_t got =
        source.read(offset + (slice.first + slice.got) * kRecordBytes, chunk,
                    want * kRecordBytes) /
        kRecordBytes;
    const BlockDecode block = decode_block(std::span<Record>(chunk, got));
    if (block.kept < got && !slice.first_bad.has_value()) {
      slice.first_bad = slice.first + slice.got + block.first_bad;
    }
    slice.kept += block.kept;
    slice.got += got;
    if (got < want || (stop_at_bad && slice.first_bad.has_value())) return;
  }
}

/// Threads that run jobs beside the calling thread, all joined when the
/// group goes out of scope.
class Helpers {
 public:
  Helpers() = default;
  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;
  ~Helpers() = default;  // joins every thread

  /// Starts `job` on a thread of its own, or runs it here when no thread
  /// can be started.
  template <typename Job>
  void run(const Job& job) {
    try {
      threads_.emplace_back(job);
    } catch (const std::system_error&) {
      job();
    }
  }

 private:
  // con-ok(CON002): the reader's one thread site. Every group is a local
  // of the call that needs its jobs' results, and a jthread joins on
  // destruction, so no reader thread outlives the read; the jobs fill
  // disjoint spans of the trace's storage.
  std::vector<std::jthread> threads_;
};

/// Runs every slice of `slices`, whose records start at `storage`: the
/// first on this thread, the others beside it, all joined before return.
template <typename Record>
void read_slices(const ByteSource& source, std::uint64_t offset,
                 Record* storage, bool stop_at_bad,
                 std::vector<SliceRead>& slices) {
  const std::uint64_t base = slices.front().first;
  const auto run = [&](SliceRead& slice) {
    read_slice(source, offset, storage + (slice.first - base), stop_at_bad,
               slice);
  };
  Helpers helpers;
  for (std::size_t i = 1; i < slices.size(); ++i) {
    helpers.run([&run, &slice = slices[i]] { run(slice); });
  }
  run(slices.front());
}

/// How a positional source's sections are read: in how many slices each,
/// and whether the truth section is read beside the packet section rather
/// than after it.
struct Slicing {
  std::uint64_t packets = 1;
  std::uint64_t truth = 1;
  bool side_by_side = false;
};

/// Up to min(kMaxSlices, cores) slices of at least kMinSliceBytes over the
/// `packets` + `truth` records the input holds of a whole packet section
/// (`truth` is 0 when that section is cut short, since then the truth is
/// not read). Both sections present and more than one slice: the truth
/// takes its share of the slices, at least one, and is read side by side
/// with the packets, so their two vectors are sized and filled at once.
Slicing default_slicing(std::uint64_t packets, std::uint64_t truth) {
  // con-ok(CON002): reads the core count; starts no thread.
  const std::uint64_t cores = std::jthread::hardware_concurrency();
  const std::uint64_t total = std::clamp<std::uint64_t>(
      (packets + truth) * kRecordBytes / kMinSliceBytes, 1,
      std::clamp<std::uint64_t>(cores, 1, kMaxSlices));
  if (total == 1 || truth == 0 || packets == 0) return {total, total, false};
  const std::uint64_t truth_slices = std::clamp<std::uint64_t>(
      (2 * total * truth + packets + truth) / (2 * (packets + truth)), 1,
      total - 1);
  return {total - truth_slices, truth_slices, true};
}

/// What reading one section left behind.
struct SectionRead {
  std::uint64_t kept = 0;     ///< valid records appended
  std::uint64_t skipped = 0;  ///< invalid records dropped
  std::uint64_t missing = 0;  ///< declared records the input ended before
  TraceError damage;          ///< the first bad record or the truncation
};

/// Reads a section of `count` declared records, starting at input offset
/// `offset`, onto the end of `records`. When the input can tell how many of
/// them it holds (`held`) and `slices` > 1, the vector is sized for all of
/// those at once and they are read as `slices` slices side by side (slice i
/// of n records covers [i*n/slices, (i+1)*n/slices)); otherwise one slice
/// of up to kChunkRecords is sized and read at a time until the input ends
/// or holds no more. Slices merge in record order: each slice's valid
/// records move down by one memmove to close the gaps before them, the
/// first damage is the lowest-offset one, and a slice the input ended
/// inside ends the section. With `stop_at_bad` (strict mode) a bad record
/// ends it too; only its damage is used then.
template <typename Record>
SectionRead read_section(const ByteSource& source, std::uint64_t offset,
                         std::uint64_t count,
                         std::optional<std::uint64_t> held,
                         std::uint64_t slices, bool stop_at_bad,
                         TraceErrorCode truncated,
                         std::vector<Record>& records) {
  SectionRead section;
  const std::uint64_t limit = held.has_value() ? std::min(count, *held) : count;
  const bool sliced = held.has_value() && slices > 1;
  records.reserve(records.size() +
                  (held.has_value() ? limit
                                    : std::min(count, kUnsizedReserveRecords)));
  std::uint64_t done = 0;  // section records the input has delivered
  bool ended = false;
  while (!ended && done < limit) {
    // One slice sizes and fills a chunk at a time, so each chunk's
    // zero-fill is still in cache when its records land on it.
    const std::uint64_t window =
        sliced ? limit - done
               : std::min<std::uint64_t>(limit - done, kChunkRecords);
    const std::uint64_t parts =
        sliced ? std::clamp<std::uint64_t>(slices, 1, window) : 1;
    std::vector<SliceRead> cut(parts);
    for (std::uint64_t i = 0; i < parts; ++i) {
      cut[i].first = done + window * i / parts;
      cut[i].size =
          static_cast<std::size_t>(done + window * (i + 1) / parts -
                                   cut[i].first);
    }
    const std::size_t base = records.size();
    records.resize(base + window);
    read_slices(source, offset, records.data() + base, stop_at_bad, cut);

    std::size_t kept = base;
    for (const SliceRead& slice : cut) {
      Record* from = records.data() + base + (slice.first - done);
      if (from != records.data() + kept) {
        std::memmove(records.data() + kept, from, slice.kept * kRecordBytes);
      }
      kept += slice.kept;
      section.kept += slice.kept;
      section.skipped += slice.got - slice.kept;
      if (slice.first_bad.has_value() && !section.damage) {
        section.damage = {TraceErrorCode::kBadFieldValue,
                          offset + *slice.first_bad * kRecordBytes};
      }
      ended = slice.got < slice.size;
      if (ended) {
        done = slice.first + slice.got;
        break;
      }
    }
    records.resize(kept);
    if (stop_at_bad && section.damage) return section;
    if (!ended) done += window;
  }
  if (done < count) {
    if (!section.damage) {
      section.damage = {truncated, offset + done * kRecordBytes};
    }
    section.missing = count - done;
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

/// The one checked reader, over a stream or a file: the header, then each
/// section by read_section. On a positional source each section is read
/// in `slices` slices, the two sections side by side when `slices` > 1
/// (0: default_slicing); otherwise both are one slice, one after the other.
TraceReadResult read_checked(const ByteSource& source,
                             const TraceReadOptions& options,
                             std::uint64_t slices) {
  // --- Header: damage here is fatal in every mode. Read in one piece;
  // the byte count reached says which field the input ended inside.
  std::array<std::uint8_t, kHeaderBytes> header{};
  const std::uint64_t got = source.read(0, header.data(), header.size());
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
  // corrupt count either provably exceeds the input (sized: reject, or
  // tolerate as truncation, and size each section by what the input
  // holds) or, on an input that cannot tell its size, is read a chunk at a
  // time, so a hostile header cannot demand terabytes before the first
  // record fails.
  const std::optional<std::uint64_t> remaining = source.remaining(kHeaderBytes);
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
  // How many records of a section starting `before` bytes after the header
  // the input holds.
  const auto held = [&remaining](std::uint64_t before)
      -> std::optional<std::uint64_t> {
    if (!remaining.has_value()) return std::nullopt;
    return (*remaining - std::min(*remaining, before)) / kRecordBytes;
  };
  const std::optional<std::uint64_t> packets_held = held(0);
  // The truth is read only behind a whole packet section, whose size then
  // fits the input.
  const bool packets_whole =
      !packets_held.has_value() || *packets_held >= packet_count;
  const std::optional<std::uint64_t> truth_held =
      packets_whole ? held(packet_count * kRecordBytes) : 0;
  Slicing slicing;
  if (source.positional()) {
    const std::uint64_t truth_records = std::min(truth_count, *truth_held);
    slicing = slices != 0
                  ? Slicing{slices, slices, slices > 1 && truth_records > 0}
                  : default_slicing(std::min(packet_count, *packets_held),
                                    truth_records);
  }
  const bool strict = !options.tolerant;
  Trace trace;

  // --- Packet records, then truth records; side by side, the truth is
  // read whether or not the packets were damaged, and used only if they
  // were not fatally so. A strict read fails at the first damage; a
  // tolerant one keeps what was valid and counts the rest.
  SectionRead truth;
  const auto read_truth = [&] {
    truth = read_section(source, kHeaderBytes + packet_count * kRecordBytes,
                         truth_count, truth_held, slicing.truth, strict,
                         TraceErrorCode::kTruncatedTruth, trace.truth());
  };
  SectionRead packets;
  std::exception_ptr truth_failure;  // leaves the truth's thread this way
  {
    Helpers beside;
    if (slicing.side_by_side) {
      // Both vectors are allocated here, packets first as in a one-slice
      // read. Memory a thread allocates stays in that thread's malloc
      // arena, out of reach of the caller's later allocations (+2.4 MB
      // peak RSS in perfbench); and with truth allocated first, a quarter
      // of the repeated reads in one process faulted in fresh pages for
      // both vectors (~9 ms instead of ~4, glibc 2.36).
      trace.packets().reserve(std::min(packet_count, *packets_held));
      trace.truth().reserve(std::min(truth_count, *truth_held));
      beside.run([&] {
        try {
          read_truth();
        } catch (...) {
          truth_failure = std::current_exception();
        }
      });
    }
    packets = read_section(source, kHeaderBytes, packet_count, packets_held,
                           slicing.packets, strict,
                           TraceErrorCode::kTruncatedPacket, trace.packets());
  }
  if (truth_failure) std::rethrow_exception(truth_failure);
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

  if (!slicing.side_by_side) read_truth();
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

/// Closes a file descriptor on every way out of the reader.
class FileCloser {
 public:
  explicit FileCloser(int fd) : fd_(fd) {}
  FileCloser(const FileCloser&) = delete;
  FileCloser& operator=(const FileCloser&) = delete;
  ~FileCloser() { ::close(fd_); }

 private:
  int fd_;
};

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
  return read_checked(ByteSource(in), options, 1);
}

TraceReadResult read_binary_checked_file(const std::string& path,
                                         const TraceReadOptions& options) {
  return detail::read_binary_checked_file(path, options, 0);
}

namespace detail {

TraceReadResult read_binary_checked_file(const std::string& path,
                                         const TraceReadOptions& options,
                                         std::uint64_t slices) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail(TraceErrorCode::kIoError, 0);
  const FileCloser closer(fd);
  return read_checked(ByteSource(fd), options, slices);
}

}  // namespace detail

std::optional<Trace> read_binary(std::istream& in) {
  TraceReadResult result = read_binary_checked(in);
  if (!result.ok()) return std::nullopt;
  return std::move(result.trace);
}

std::optional<Trace> read_binary_file(const std::string& path) {
  TraceReadResult result = read_binary_checked_file(path);
  if (!result.ok()) return std::nullopt;
  return std::move(result.trace);
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
