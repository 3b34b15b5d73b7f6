// Binary (.dtrc) and CSV serialization for traces.
//
// The binary format is a fixed little-endian layout so regenerated workloads
// can be cached on disk between benchmark runs:
//
//   header:  magic "DTRC" | u32 version | u64 packet count | u64 truth count
//   packets: u64 ts | u32 src_ip | u32 dst_ip | u16 sport | u16 dport |
//            u32 seq | u32 ack | u16 payload | u8 flags | u8 outbound
//   truth:   u32 src_ip | u32 dst_ip | u16 sport | u16 dport | u32 eack |
//            u64 seq_ts | u64 ack_ts
//
// Each 32-byte record is laid out field for field like the in-memory
// PacketRecord / TruthSample, so the codec below works on whole blocks:
// on a little-endian host a block of records *is* its wire bytes (the
// layout is pinned by static_asserts next to the codec), and a big-endian
// host byte-swaps each field. The file reader lands each block of up to
// kBlockRecords records straight in the trace's storage with one
// istream::read and checks it in place with one validity scan; the writer
// encodes a block per ostream::write; the daemon's socket source appends
// whole buffered runs. No record is decoded on its own.
//
// Reading is hardened: a damaged capture is a *diagnosed* condition, never
// undefined behaviour. read_binary_checked() returns a typed TraceError
// (what went wrong, at which byte offset) plus per-record accounting; a
// tolerant mode mirrors how a real collector must survive a corrupt
// capture — skip bad records, keep the readable prefix of a truncated
// file, and count what was lost instead of aborting. Declared record
// counts are validated against the stream size before any allocation, so
// a corrupt header cannot demand terabytes of memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "trace/trace.hpp"

namespace dart::trace {

inline constexpr std::uint32_t kTraceFormatVersion = 1;

/// Serialized sizes (bytes) of one record of each stream; used for the
/// header-count sanity check and by tests that build corrupt corpora.
inline constexpr std::uint64_t kPacketRecordBytes = 32;
inline constexpr std::uint64_t kTruthRecordBytes = 32;
inline constexpr std::uint64_t kHeaderBytes = 4 + 4 + 8 + 8;

/// Records moved per stream call by the block reader and writer (and per
/// read(2) by the daemon's socket source): 64 KiB of records.
inline constexpr std::size_t kBlockRecords = 2048;

/// Serialize to a stream; returns false on I/O error.
bool write_binary(const Trace& trace, std::ostream& out);
bool write_binary_file(const Trace& trace, const std::string& path);

/// Block codec. Encode writes the wire bytes of `records.size()` records
/// (32 bytes each) to `out`.
void encode_records(std::span<const PacketRecord> records, std::uint8_t* out);
void encode_records(std::span<const TruthSample> records, std::uint8_t* out);

struct BlockDecode {
  std::size_t kept = 0;       ///< valid records, now at the block's front
  std::size_t first_bad = 0;  ///< index of the first invalid record, or
                              ///< the block size when every record is valid
};

/// Decodes a block in place: `records` holds the raw wire bytes of that
/// many records, copied or read straight into its storage. One scan checks
/// that every record's outbound byte is at most 1 (it is read as a byte,
/// never as a `bool`, until it has passed) and moves the valid records down
/// over the invalid ones, in order. Only records[0, kept) hold valid
/// objects afterwards. The file reader runs the same scan over truth
/// blocks, where a record is valid when ack_ts >= seq_ts.
BlockDecode decode_records(std::span<PacketRecord> records);

/// One-record calls of the block codec over a 32-byte packet record.
/// Decode returns false (leaving `packet` untouched) when the record fails
/// the block check.
void encode_packet_record(const PacketRecord& packet,
                          std::uint8_t* out /* kPacketRecordBytes */);
bool decode_packet_record(const std::uint8_t* in /* kPacketRecordBytes */,
                          PacketRecord& packet);

enum class TraceErrorCode : std::uint8_t {
  kNone = 0,
  kIoError,           ///< stream unreadable before any parsing
  kBadMagic,          ///< not a DTRC file
  kBadVersion,        ///< unsupported format version
  kTruncatedHeader,   ///< EOF inside the fixed header
  kImpossibleCount,   ///< declared records cannot fit the stream
  kTruncatedPacket,   ///< EOF inside a packet record
  kTruncatedTruth,    ///< EOF inside a truth record
  kBadFieldValue,     ///< a field holds an out-of-range value
};

const char* to_string(TraceErrorCode code);

struct TraceError {
  TraceErrorCode code = TraceErrorCode::kNone;
  /// Byte offset into the stream where the error was detected (start of
  /// the offending record or field).
  std::uint64_t offset = 0;

  explicit operator bool() const { return code != TraceErrorCode::kNone; }
  std::string to_string() const;
};

struct TraceReadOptions {
  /// Collector mode: skip records with out-of-range fields (counted in
  /// `skipped_records`) and keep the readable prefix of a truncated
  /// stream (missing records counted in `lost_records`) instead of
  /// failing the whole read. Header damage (magic/version/truncation
  /// inside the header) is fatal in every mode — there is nothing to
  /// salvage without a trusted header.
  bool tolerant = false;
};

struct TraceReadResult {
  /// Present on success; in tolerant mode also present (possibly partial)
  /// after record-level damage. Absent only on fatal errors.
  std::optional<Trace> trace;

  /// kNone when the stream was fully clean. In tolerant mode a set error
  /// alongside a present trace means "partial read": `error` describes
  /// the first damage encountered.
  TraceError error;

  std::uint64_t packets_read = 0;
  std::uint64_t truth_read = 0;
  std::uint64_t skipped_records = 0;  ///< corrupt records dropped (tolerant)
  std::uint64_t lost_records = 0;     ///< declared but missing (truncation)

  /// Fully clean read: a trace with no damage at all.
  bool ok() const { return trace.has_value() && !error; }

  /// A usable trace was produced but some input was skipped or lost.
  bool degraded() const {
    return trace.has_value() &&
           (error || skipped_records != 0 || lost_records != 0);
  }
};

/// Hardened deserialization with typed errors and tolerant-mode salvage.
TraceReadResult read_binary_checked(std::istream& in,
                                    const TraceReadOptions& options = {});
TraceReadResult read_binary_checked_file(const std::string& path,
                                         const TraceReadOptions& options = {});

/// Strict convenience wrappers; nullopt on any damage (bad magic, version,
/// truncated input, out-of-range fields).
std::optional<Trace> read_binary(std::istream& in);
std::optional<Trace> read_binary_file(const std::string& path);

/// Human-readable packet CSV (header row included); for debugging and for
/// feeding external plotting scripts.
bool write_csv(const Trace& trace, std::ostream& out);
bool write_csv_file(const Trace& trace, const std::string& path);

}  // namespace dart::trace
