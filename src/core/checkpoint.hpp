// Versioned binary checkpoints of monitor state (the crash-recovery
// subsystem's wire format).
//
// A CheckpointImage is a self-validating byte string:
//
//   offset  0  magic "DCKP"
//   offset  4  u32 format version (kCheckpointVersion)
//   offset  8  u32 CRC-32 (IEEE) over every byte from offset 12 to the end
//   offset 12  u64 epoch           — barrier number that cut this image
//   offset 20  u64 cursor          — shard-stream packets delivered at the cut
//   offset 28  u64 sample_cursor   — samples committed after this cut
//   offset 36  u32 section count
//   then per section: u32 section id, u64 payload length, payload bytes.
//
// All integers are little-endian. The CRC makes any truncation or byte flip
// detectable up front; deeper field validation mirrors the trace_io typed
// error style (an error code plus the byte offset of the damage). Restore
// paths parse into staging state and commit only on full success, so a
// damaged image is *never* half-applied — the monitor keeps its pre-restore
// state bit for bit.
//
// This header is quiesce-time-only code (checkpoints are cut at epoch
// barriers, not per packet) and is exempt from the hot-path lint; the
// component snapshot()/restore() members it serves live in the hot-path
// translation units and stay allocation-discipline clean.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dart::core {

inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::size_t kCheckpointHeaderBytes = 40;
inline constexpr std::size_t kCheckpointCrcOffset = 8;
/// First byte covered by the CRC (everything before it identifies the
/// format; everything after it is integrity-checked content).
inline constexpr std::size_t kCheckpointCrcStart = 12;

/// Section ids inside a DartMonitor image. Unknown ids are rejected by
/// version-1 readers (strict framing: a damaged id must not be skipped).
enum class CheckpointSection : std::uint32_t {
  kConfig = 1,         ///< DartConfig fingerprint (geometry + seeds)
  kStats = 2,          ///< DartStats counters at the cut
  kRangeTracker = 3,   ///< RT entries
  kPacketTracker = 4,  ///< PT records
  kShadowRt = 5,       ///< shadow RT entries (iff config.shadow_rt)
  kShadowBacklog = 6,  ///< buffered packets awaiting a shadow sync
  kFlowFilter = 7,     ///< operator flow-selection rules
};

enum class CheckpointErrorCode : std::uint8_t {
  kNone = 0,
  kTruncated,         ///< fewer bytes than the header/frame promises
  kBadMagic,          ///< not a checkpoint image
  kBadVersion,        ///< format version this reader does not speak
  kCrcMismatch,       ///< integrity check failed (corruption)
  kBadSectionHeader,  ///< section frame inconsistent with the byte count
  kDuplicateSection,  ///< the same section id appears twice
  kMissingSection,    ///< a section the target requires is absent
  kBadFieldValue,     ///< a field decodes to an impossible value
  kGeometryMismatch,  ///< image was cut from a differently-configured monitor
  kTrailingBytes,     ///< bytes after the last declared section
  kUnsupported,       ///< target cannot restore (e.g. non-Dart monitor)
  kIoError,           ///< file read/write failed
};

const char* to_string(CheckpointErrorCode code);

/// A typed checkpoint diagnostic: what went wrong and where (byte offset
/// into the image; 0 when the offset is meaningless, e.g. kIoError).
struct CheckpointError {
  CheckpointErrorCode code = CheckpointErrorCode::kNone;
  std::uint64_t offset = 0;

  explicit operator bool() const { return code != CheckpointErrorCode::kNone; }
  std::string to_string() const;

  static CheckpointError ok() { return {}; }
  static CheckpointError at(CheckpointErrorCode code, std::uint64_t offset) {
    return CheckpointError{code, offset};
  }
};

/// What a checkpoint was cut against: the barrier's epoch number, the
/// shard-stream cursor (packets delivered to the monitor when the image was
/// taken), and the sample cursor (samples committed once this image lands).
struct SnapshotMeta {
  std::uint64_t epoch = 0;
  std::uint64_t cursor = 0;
  std::uint64_t sample_cursor = 0;

  friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

/// The serialized image. A plain byte vector with value semantics: byte
/// equality is the round-trip test.
struct CheckpointImage {
  std::vector<std::uint8_t> bytes;

  std::size_t size() const { return bytes.size(); }
  bool empty() const { return bytes.empty(); }

  friend bool operator==(const CheckpointImage&, const CheckpointImage&) =
      default;
};

/// Parsed frame description — what `dart-ckpt inspect` prints.
struct CheckpointSectionInfo {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;  ///< of the payload, into the image
  std::uint64_t length = 0;  ///< payload bytes
};

struct CheckpointInfo {
  std::uint32_t version = 0;
  SnapshotMeta meta;
  std::uint32_t stored_crc = 0;
  std::uint32_t computed_crc = 0;
  std::vector<CheckpointSectionInfo> sections;
};

/// Validate the envelope (magic, version, CRC, section framing) and fill
/// `info` as far as parsing got. Returns the first damage found; an image
/// that passes read_info has a structurally sound frame.
CheckpointError read_info(const CheckpointImage& image, CheckpointInfo* info);

struct DartStats;

/// Extract just the counters (kStats section) from a validated image —
/// how the sharded runtime salvages a detached worker's last-known accounting
/// without rehydrating a whole monitor.
CheckpointError read_stats(const CheckpointImage& image, DartStats* stats);

struct DartConfig;
/// Extract the monitor configuration (kConfig section) from a validated
/// image — lets a tool rebuild a compatible monitor for deep verification
/// without knowing the deployment that cut the checkpoint. Implemented
/// next to the config codec in dart_monitor.cpp.
CheckpointError read_config(const CheckpointImage& image, DartConfig* config);

/// Recompute and store the CRC for `image` (requires a complete header).
/// Used by tools and tests that deliberately edit image bytes and by the
/// writer's seal step.
void reseal_checkpoint(CheckpointImage& image);

CheckpointError save_checkpoint(const CheckpointImage& image,
                                const std::string& path);
CheckpointError load_checkpoint(const std::string& path,
                                CheckpointImage* image);

/// Little-endian append-only byte sink for component serializers. Sections
/// are framed by begin_section/end_section; seal() stamps the section count
/// and the CRC. The writer is infallible (memory is the only resource).
class CheckpointWriter {
 public:
  explicit CheckpointWriter(const SnapshotMeta& meta);

  void u8(std::uint8_t value);
  void u16(std::uint16_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);

  void begin_section(CheckpointSection id);
  void end_section();

  /// Finish the image: stamp section count + CRC. The writer is spent.
  CheckpointImage seal();

 private:
  void patch_u32(std::size_t offset, std::uint32_t value);
  void patch_u64(std::size_t offset, std::uint64_t value);

  CheckpointImage image_;
  std::size_t open_section_length_at_ = 0;  ///< offset of the length field
  std::size_t open_section_payload_at_ = 0;
  bool section_open_ = false;
  std::uint32_t section_count_ = 0;
};

/// Bounds-checked little-endian cursor over one section's payload. Reads
/// past the end set a sticky kTruncated error and return zero; callers
/// check error() once after a batch of reads (the trace_io salvage idiom,
/// minus salvage — checkpoints restore fully or not at all).
class CheckpointReader {
 public:
  /// `base_offset` is the payload's offset into the whole image, so error
  /// offsets point at the actual damaged byte.
  CheckpointReader(std::span<const std::uint8_t> payload,
                   std::uint64_t base_offset);

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();

  /// Flag an impossible decoded value at the position just read.
  void fail_field();

  /// A typed error anchored at the position just read — for failures the
  /// caller diagnoses itself (e.g. geometry mismatches).
  CheckpointError error_here(CheckpointErrorCode code) const;

  std::size_t remaining() const { return payload_.size() - pos_; }
  bool exhausted() const { return pos_ == payload_.size() && !error_; }
  const CheckpointError& error() const { return error_; }

  /// kTrailingBytes unless the payload was consumed exactly.
  CheckpointError finish() const;

 private:
  bool take(std::size_t n);

  std::span<const std::uint8_t> payload_;
  std::uint64_t base_offset_;
  std::size_t pos_ = 0;
  std::size_t last_read_at_ = 0;
  CheckpointError error_;
};

}  // namespace dart::core
