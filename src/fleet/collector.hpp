// FleetCollector: merge N vantage frame streams into one deterministic
// report, surviving everything a sick fleet can emit.
//
// Hardening model (the runtime's shard discipline, applied across process
// boundaries):
//
//  * Typed ingest errors + quarantine, never a crash: a frame that fails
//    envelope validation (torn, truncated, CRC-bad), sequence discipline
//    (duplicate, stale epoch), or cross-validation (its stats section
//    breaks processed + shed + abandoned + lost_to_crash == cursor, or its
//    histogram's mass is not the stats' sample count) is recorded with a
//    reason and set aside. Because state frames are cumulative, a
//    quarantined mid-stream frame costs nothing once a later one lands.
//
//  * Retry with bounded exponential backoff + jitter: run() polls the
//    spool under RetryPolicy delays. All *decisions* are counted in poll
//    attempts, not wall time, so the same spool always produces the same
//    report — the backoff only spaces the polls out.
//
//  * Liveness deadlines: a vantage that makes no progress for
//    fence_after_attempts polls is fenced — `stale` if it ever spoke,
//    `missing` if it never did. Fencing is exact, not approximate: the
//    manifest's expected_routed minus the last accepted cursor is the
//    vantage's loss window, extending the runtime identity to
//
//      fleet_processed + fleet_shed + fleet_abandoned
//        + fleet_lost_to_crash + fleet_lost_to_vantage == fleet_routed
//
//    per vantage and in aggregate (vantages that never sent a manifest
//    have no denominator; they are excluded and reported as missing).
//
//  * Reorder healing: frames are accepted in sequence order regardless of
//    arrival order; a sequence gap is held open for gap_grace_attempts
//    polls (an in-flight reordered frame fills it losslessly) and only
//    then skipped and counted missing.
//
//  * Epoch alignment under clock skew: the *cursor* (packets covered,
//    cross-validated against the stats counters) is the trusted clock;
//    the epoch header is just a claim. With a manifest interval the barrier
//    a state frame should claim is cursor / epoch_interval, so a skewed
//    claim within skew_grace_epochs heals losslessly (the frame is applied
//    and the report renders the *aligned* epoch) while a claim beyond the
//    grace window is quarantined (excessive-skew) — the cursor does not
//    advance, so the vantage's loss window stays exact and the fleet
//    identity holds. The fleet epoch watermark is the minimum aligned
//    epoch over non-fenced vantages: a fleet epoch is committed only once
//    every participant has exported at or past it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analytics/histogram.hpp"
#include "core/stats.hpp"
#include "fleet/frame.hpp"
#include "fleet/snapshot_sink.hpp"

namespace dart::fleet {

enum class VantageState : std::uint8_t {
  kMissing = 0,  ///< no accepted frame (not even a manifest)
  kLive = 1,     ///< frames accepted, final not yet seen
  kComplete = 2, ///< final frame accepted
  kStale = 3,    ///< fenced at the liveness deadline with frames accepted
};

const char* to_string(VantageState state);

/// Why a frame was quarantined. The enum order is the exported label
/// order; every reason renders in the report (zeros included) so the
/// report schema is fixed.
enum class QuarantineReason : std::uint8_t {
  kTruncated = 0,     ///< envelope shorter than it promises
  kBadMagic,          ///< not a fleet frame
  kBadVersion,        ///< format version mismatch
  kCrcMismatch,       ///< integrity seal failed
  kBadFrame,          ///< section framing / field damage inside the frame
  kUnknownVantage,    ///< vantage id outside the configured fleet
  kDuplicateSequence, ///< sequence number already accepted or pending
  kStaleEpoch,        ///< epoch/cursor went backwards vs accepted state
  kStatsMismatch,     ///< stats disagree with the cursor or the histogram
  kIoError,           ///< spool file could not be read
  kExcessiveSkew,     ///< claimed epoch beyond the skew-grace window
};

inline constexpr std::size_t kQuarantineReasons = 11;

const char* to_string(QuarantineReason reason);

/// Bounded exponential backoff with deterministic seeded jitter. Pure:
/// delay_ns(attempt) is a function of (policy, attempt), so tests pin the
/// schedule without sleeping.
struct RetryPolicy {
  std::uint64_t base_delay_ns = 1'000'000;    ///< 1 ms
  std::uint64_t max_delay_ns = 200'000'000;   ///< 200 ms cap
  double jitter_fraction = 0.2;               ///< +/- around the base curve
  std::uint64_t seed = 0xF1EE7;

  std::uint64_t delay_ns(std::uint64_t attempt) const;
};

struct CollectorConfig {
  std::string spool_dir;
  std::uint64_t vantages = 0;  ///< expected vantage ids are [0, vantages)
  /// Polls without progress before a vantage is fenced stale/missing.
  std::uint64_t fence_after_attempts = 8;
  /// Polls a sequence gap stays open awaiting a reordered frame.
  std::uint64_t gap_grace_attempts = 3;
  /// Upper bound on run()'s poll loop; finalize() fences whatever is left.
  std::uint64_t max_attempts = 64;
  /// How far a state frame's claimed epoch may sit from the cursor-derived
  /// barrier before the frame is quarantined instead of healed.
  std::uint64_t skew_grace_epochs = 2;
  RetryPolicy retry;
};

struct VantageStatus {
  VantageState state = VantageState::kMissing;
  bool has_manifest = false;
  VantageInfo info;
  std::uint64_t next_sequence = 0;  ///< next frame accepted contiguously
  std::uint64_t last_epoch = 0;
  std::uint64_t cursor = 0;         ///< packets covered by accepted state
  bool has_stats = false;
  core::DartStats stats;            ///< from the last accepted state frame
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_quarantined = 0;
  std::uint64_t frames_missing = 0;  ///< gaps skipped after grace
  std::uint64_t attempts_without_progress = 0;
  std::uint64_t gap_attempts = 0;    ///< polls the current gap stayed open
  bool fenced = false;               ///< liveness deadline fired (terminal)
  /// Claimed-minus-aligned epoch of the last accepted state frame: the
  /// per-vantage skew estimate (zero for an honest clock).
  std::int64_t epoch_skew = 0;
  bool has_rtt_histogram = false;
  /// Cumulative RTT distribution from the last accepted state frame
  /// carrying a histogram section.
  analytics::LogHistogram rtt_histogram;

  /// Exact loss window: what the manifest promised minus what the last
  /// accepted state frame covered. Zero for a complete vantage.
  std::uint64_t lost_to_vantage() const {
    if (!has_manifest) return 0;
    return info.expected_routed > cursor ? info.expected_routed - cursor : 0;
  }

  /// The barrier actually covered by the accepted cursor — the skew-immune
  /// epoch the report renders and the watermark is computed from. Without
  /// a manifest interval there is nothing to align against, so the claimed
  /// epoch stands.
  std::uint64_t aligned_epoch() const {
    if (!has_stats) return 0;
    if (has_manifest && info.epoch_interval > 0) {
      return cursor / info.epoch_interval;
    }
    return last_epoch;
  }
};

struct QuarantineRecord {
  std::string file;
  std::uint64_t vantage = 0;  ///< from the file name (header untrusted)
  QuarantineReason reason = QuarantineReason::kTruncated;
  std::uint64_t offset = 0;   ///< damage offset, when known
};

class FleetCollector {
 public:
  explicit FleetCollector(CollectorConfig config);

  /// One spool scan: ingest every new frame, advance per-vantage sequence
  /// acceptance, apply gap grace and liveness fencing. Deterministic given
  /// the spool contents and the poll count. Returns true if any vantage
  /// made progress.
  bool poll();

  /// True once every vantage reached a terminal state (complete, stale, or
  /// fenced missing).
  bool resolved() const;

  /// Fence every unresolved vantage now (run()'s attempt budget ran out).
  void finalize();

  /// Poll under the retry policy until resolved or max_attempts, sleeping
  /// delay_ns(attempt) between polls, then finalize. Returns the number of
  /// polls taken.
  std::uint64_t run();

  const VantageStatus& status(std::uint64_t vantage) const {
    return vantages_[vantage];
  }
  const std::vector<QuarantineRecord>& quarantined() const {
    return quarantined_;
  }
  std::uint64_t quarantined_by(QuarantineReason reason) const {
    return quarantine_counts_[static_cast<std::size_t>(reason)];
  }
  std::uint64_t polls() const { return polls_; }

  /// The fleet epoch watermark: the highest epoch every participating
  /// (complete or live, non-fenced-stale/missing) vantage has exported at
  /// or past, measured in *aligned* epochs so a skewed claim cannot move
  /// it. Zero when no vantage has accepted state.
  std::uint64_t epoch_watermark() const;

  /// Fold every vantage's accepted cumulative RTT histogram into one
  /// fleet-wide distribution (mass-conserving merge, vantage-index order).
  /// `contributors`, when non-null, gets the number of vantages that
  /// carried a histogram.
  analytics::LogHistogram merged_rtt_histogram(
      std::uint64_t* contributors = nullptr) const;

  /// The deterministic merged report: fleet/vantage states, the extended
  /// identity counters, quarantine accounting, the epoch watermark, and
  /// the fleet RTT quantile block, in Prometheus-style text
  /// (parse_prometheus-compatible). Byte-stable for identical spool
  /// contents — epochs render *aligned*, so within-grace skew cannot
  /// perturb a single byte.
  std::string report_text() const;

  /// Skew diagnostics, separate from report_text() so the canonical report
  /// stays byte-identical under healed skew: per-vantage claimed epoch,
  /// aligned epoch, and the signed skew estimate, plus the watermark.
  std::string skew_report_text() const;

 private:
  struct PendingFrame {
    SnapshotFrame frame;
    std::string file;
  };

  void ingest_file(const SpoolEntry& entry);
  void drain_pending(std::uint64_t vantage);
  /// Accept or quarantine the next-in-sequence frame. True on accept.
  bool apply_frame(std::uint64_t vantage, PendingFrame&& pending);
  void quarantine(const std::string& file, std::uint64_t vantage,
                  QuarantineReason reason, std::uint64_t offset);
  void fence(std::uint64_t vantage);

  CollectorConfig config_;
  std::vector<VantageStatus> vantages_;
  std::set<std::string> seen_files_;
  /// Per vantage: decoded frames waiting for their sequence turn.
  std::vector<std::map<std::uint64_t, PendingFrame>> pending_;
  std::vector<QuarantineRecord> quarantined_;
  std::uint64_t quarantine_counts_[kQuarantineReasons] = {};
  std::uint64_t polls_ = 0;
};

/// Verify the extended accounting identity inside a rendered (or reparsed)
/// fleet report: per labeled vantage and in aggregate,
///   processed + shed + abandoned + lost_to_crash + lost_to_vantage
///     == routed,
/// with every aggregate row the sum of its vantage rows
/// (telemetry::check_routed_identity over the fleet_ rows).
/// On failure returns false and describes the first violation in `error`.
bool check_fleet_identity(const std::string& report_text, std::string* error);

}  // namespace dart::fleet
