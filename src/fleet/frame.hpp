// Fleet snapshot frames: the cross-process wire format of the vantage
// exporter. A frame is a sealed envelope (common/sealed.hpp: magic,
// version, CRC, section table, strict framing and the typed SealedError)
// with magic "DFRM", version kFrameVersion and these header fields:
//
//   offset 12  u64 vantage id
//   offset 20  u64 sequence   — per-vantage frame number (manifest is 0)
//   offset 28  u64 epoch      — the barrier that cut the enclosed state
//   offset 36  u64 cursor     — vantage packets covered at that barrier
//   offset 44  u32 frame kind (FrameKind)
//   offset 48  u32 section count
//
// It is one self-validating publication from one vantage process, of one
// of three kinds (FrameKind) carrying up to three sections (FrameSection).
// State-bearing frames (kEpoch / kFinal) carry *cumulative* counters: each
// one supersedes its predecessors, so a collector that loses frame k and
// accepts frame k+1 has lost nothing. Their stats section is the
// vantage's merged core::DartStats written by DartStats::snapshot, the
// same bytes as a checkpoint's stats section (a u32 field count, then one
// u64 per counter of core::kStatFields and core::kHealthFields), so the
// format keeps no counter list of its own. The manifest (sequence 0)
// declares what the vantage will route in total — the collector's
// denominator for exact loss-window accounting when the vantage dies
// mid-run.
//
// Like checkpoints, frames parse into staging state and are accepted whole
// or quarantined whole: a damaged frame never half-updates the collector.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/sealed.hpp"
#include "core/stats.hpp"

namespace dart::fleet {

inline constexpr std::uint32_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 52;
inline constexpr SealedFormat kFrameFormat{
    {'D', 'F', 'R', 'M'}, kFrameVersion, kFrameHeaderBytes};

/// Frame kinds. Kind 3 is unassigned and decodes as kBadKind.
enum class FrameKind : std::uint32_t {
  kManifest = 1,  ///< sequence 0: vantage name + expected totals
  kEpoch = 2,     ///< cumulative state at an epoch barrier
  kFinal = 4,     ///< last cumulative state; the vantage is complete
};

/// Section ids inside a frame. Readers reject unknown ids (strict
/// framing, as in the checkpoint format).
enum class FrameSection : std::uint32_t {
  kVantageInfo = 1,   ///< manifest body (name + expected totals)
  kStats = 2,         ///< cumulative merged DartStats counters
  kRttHistogram = 3,  ///< cumulative log-binned RTT distribution
};

/// Upper bound on histogram bins a frame may declare. The default layout
/// (usec(10)..sec(120), 20 bins/decade) needs ~150 bins; 4096 leaves room
/// for exotic layouts while keeping a hostile frame from forcing a huge
/// allocation before the CRC has already vetoed random corruption.
inline constexpr std::uint32_t kMaxHistogramBins = 4096;

/// Fixed per-frame header fields (everything between the CRC and the
/// section table).
struct FrameHeader {
  std::uint64_t vantage = 0;
  std::uint64_t sequence = 0;
  std::uint64_t epoch = 0;
  std::uint64_t cursor = 0;
  FrameKind kind = FrameKind::kEpoch;

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

/// Manifest body: what the vantage promises to deliver. The collector uses
/// `expected_routed` as the routed denominator of the extended identity —
/// it is known before the first packet is processed (the workload slice is
/// deterministic), so a vantage that dies still has an exact loss window.
struct VantageInfo {
  std::string name;
  std::uint64_t expected_routed = 0;
  std::uint64_t planned_epochs = 0;
  std::uint64_t epoch_interval = 0;  ///< packets per epoch barrier

  friend bool operator==(const VantageInfo&, const VantageInfo&) = default;
};

/// Raw wire form of a cumulative RTT histogram: the `LogHistogram` layout
/// (log10 bounds + per-bin counts) plus the exact seen extrema. Kept as
/// plain fields here so the frame layer stays a pure codec — the collector
/// rehydrates it through `analytics::LogHistogram::from_layout`, whose
/// mass-conserving merge makes fleet-wide quantiles exact. Counts are
/// cumulative like every other state section: each frame supersedes its
/// predecessors, so losing frame k and accepting k+1 loses no samples.
struct RttHistogramSection {
  double log_min = 0.0;   ///< log10 of the lowest bin edge
  double log_step = 0.0;  ///< log10 width of one bin (> 0, finite)
  std::uint64_t seen_min = 0;  ///< exact minimum sample (ns)
  std::uint64_t seen_max = 0;  ///< exact maximum sample (ns)
  std::vector<std::uint64_t> bins;

  /// Total mass; must equal the vantage's cumulative sample counter.
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t bin : bins) sum += bin;
    return sum;
  }

  friend bool operator==(const RttHistogramSection&,
                         const RttHistogramSection&) = default;
};

/// A fully decoded frame (or one staged for encoding). Sections are
/// flagged: a manifest carries info, a state frame carries stats and,
/// from every dart-fleet vantage, an RTT histogram.
struct SnapshotFrame {
  FrameHeader header;
  bool has_info = false;
  VantageInfo info;
  bool has_stats = false;
  core::DartStats stats;
  bool has_rtt_histogram = false;
  RttHistogramSection rtt_histogram;
};

/// Serialize a frame: header, sections present, CRC seal. Infallible.
std::vector<std::uint8_t> encode_frame(const SnapshotFrame& frame);

/// Parse and validate one frame. Returns the first damage found; on any
/// error `out` may be partially filled and must be discarded.
SealedError decode_frame(std::span<const std::uint8_t> bytes,
                         SnapshotFrame* out);

/// Recompute and store the CRC (requires a complete header) — for tests
/// and tools that deliberately edit frame bytes.
inline void reseal_frame(std::vector<std::uint8_t>& bytes) {
  reseal(bytes, kFrameFormat);
}

/// Read a whole spool file (kIoError on failure; no parsing).
inline SealedError load_frame_file(const std::string& path,
                                   std::vector<std::uint8_t>* bytes) {
  return read_sealed_file(path, bytes);
}

}  // namespace dart::fleet
