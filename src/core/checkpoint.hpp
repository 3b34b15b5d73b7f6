// Versioned binary checkpoints of monitor state (the crash-recovery
// subsystem's wire format).
//
// A CheckpointImage is a sealed envelope (common/sealed.hpp: magic, version,
// CRC, section table, strict framing and the typed SealedError) with magic
// "DCKP", version kCheckpointVersion and these header fields:
//
//   offset 12  u64 epoch           — barrier number that cut this image
//   offset 20  u64 cursor          — shard-stream packets delivered at the cut
//   offset 28  u64 sample_cursor   — samples committed after this cut
//   offset 36  u32 section count
//
// The sections are CheckpointSection; each component's snapshot()/restore()
// pair owns its section's schema. Restore paths parse into staging state
// and commit only on full success, so a damaged image is *never*
// half-applied — the monitor keeps its pre-restore state bit for bit.
//
// This header is quiesce-time-only code (checkpoints are cut at epoch
// barriers, not per packet) and is exempt from the hot-path lint; the
// component snapshot()/restore() members it serves live in the hot-path
// translation units and stay allocation-discipline clean.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sealed.hpp"

namespace dart::core {

inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::size_t kCheckpointHeaderBytes = 40;
inline constexpr SealedFormat kCheckpointFormat{
    {'D', 'C', 'K', 'P'}, kCheckpointVersion, kCheckpointHeaderBytes};

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

/// Parsed envelope plus header fields — what `dart-ckpt inspect` prints.
struct CheckpointInfo : SealedInfo {
  SnapshotMeta meta;
};

/// Validate the envelope (magic, version, CRC, section framing) and fill
/// `info` as far as parsing got. Returns the first damage found; an image
/// that passes read_info has a structurally sound frame.
SealedError read_info(const CheckpointImage& image, CheckpointInfo* info);

/// An image's sections by id, indexed strictly: an unknown or repeated id
/// is damage. The pointers point into `info`, so this stays where it was
/// filled.
struct CheckpointSections {
  CheckpointInfo info;
  std::array<const SealedSection*,
             static_cast<std::size_t>(CheckpointSection::kFlowFilter) + 1>
      by_id{};

  CheckpointSections() = default;
  CheckpointSections(const CheckpointSections&) = delete;

  /// The section with `id`, or null when the image has none.
  const SealedSection* operator[](CheckpointSection id) const {
    return by_id[static_cast<std::size_t>(id)];
  }
};

/// read_info, then index the sections by id.
SealedError index_checkpoint(const CheckpointImage& image,
                             CheckpointSections* sections);

struct DartStats;

/// Extract just the counters (kStats section) from a validated image —
/// how the sharded runtime salvages a detached worker's last-known accounting
/// without rehydrating a whole monitor.
SealedError read_stats(const CheckpointImage& image, DartStats* stats);

struct DartConfig;
/// Extract the monitor configuration (kConfig section) from a validated
/// image — lets a tool rebuild a compatible monitor for deep verification
/// without knowing the deployment that cut the checkpoint. Implemented
/// next to the config codec in dart_monitor.cpp.
SealedError read_config(const CheckpointImage& image, DartConfig* config);

/// Recompute and store the CRC for `image` (requires a complete header).
inline void reseal_checkpoint(CheckpointImage& image) {
  reseal(image.bytes, kCheckpointFormat);
}

SealedError save_checkpoint(const CheckpointImage& image,
                            const std::string& path);
inline SealedError load_checkpoint(const std::string& path,
                                   CheckpointImage* image) {
  return read_sealed_file(path, &image->bytes);
}

/// The DCKP writer: the sealed writer with the header fields written.
/// Component serializers append to its open section through SealedWriter.
class CheckpointWriter : public SealedWriter {
 public:
  explicit CheckpointWriter(const SnapshotMeta& meta);

  void begin_section(CheckpointSection id) {
    SealedWriter::begin_section(static_cast<std::uint32_t>(id));
  }
  CheckpointImage seal() { return CheckpointImage{SealedWriter::seal()}; }
};

}  // namespace dart::core
