#include "fleet/collector.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <utility>

#include "common/hashing.hpp"
#include "telemetry/export.hpp"

namespace dart::fleet {

namespace {

/// Shortest round-trippable rendering, byte-for-byte the telemetry
/// exporter's discipline — the fleet quantile block must be byte-stable.
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Skew estimate of a state frame against its cursor-derived barrier. A
/// final frame may honestly claim either the last covered barrier or one
/// past it (an exporter's final either replaces or follows its last epoch
/// frame), so the nearer candidate is used.
std::int64_t frame_epoch_skew(const FrameHeader& header,
                              std::uint64_t epoch_interval) {
  const std::uint64_t aligned = header.cursor / epoch_interval;
  const std::int64_t claimed = static_cast<std::int64_t>(header.epoch);
  std::int64_t skew = claimed - static_cast<std::int64_t>(aligned);
  if (header.kind == FrameKind::kFinal) {
    const std::int64_t alt =
        claimed - static_cast<std::int64_t>(aligned + 1);
    if (std::llabs(alt) < std::llabs(skew)) skew = alt;
  }
  return skew;
}

QuarantineReason reason_for(SealedErrorCode code) {
  switch (code) {
    case SealedErrorCode::kTruncated:
      return QuarantineReason::kTruncated;
    case SealedErrorCode::kBadMagic:
      return QuarantineReason::kBadMagic;
    case SealedErrorCode::kBadVersion:
      return QuarantineReason::kBadVersion;
    case SealedErrorCode::kCrcMismatch:
      return QuarantineReason::kCrcMismatch;
    case SealedErrorCode::kIoError:
      return QuarantineReason::kIoError;
    default:
      return QuarantineReason::kBadFrame;
  }
}

}  // namespace

const char* to_string(VantageState state) {
  switch (state) {
    case VantageState::kMissing:
      return "missing";
    case VantageState::kLive:
      return "live";
    case VantageState::kComplete:
      return "complete";
    case VantageState::kStale:
      return "stale";
  }
  return "unknown";
}

const char* to_string(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kTruncated:
      return "truncated";
    case QuarantineReason::kBadMagic:
      return "bad-magic";
    case QuarantineReason::kBadVersion:
      return "bad-version";
    case QuarantineReason::kCrcMismatch:
      return "crc-mismatch";
    case QuarantineReason::kBadFrame:
      return "bad-frame";
    case QuarantineReason::kUnknownVantage:
      return "unknown-vantage";
    case QuarantineReason::kDuplicateSequence:
      return "duplicate-sequence";
    case QuarantineReason::kStaleEpoch:
      return "stale-epoch";
    case QuarantineReason::kStatsMismatch:
      return "stats-mismatch";
    case QuarantineReason::kIoError:
      return "io-error";
    case QuarantineReason::kExcessiveSkew:
      return "excessive-skew";
  }
  return "unknown";
}

std::uint64_t RetryPolicy::delay_ns(std::uint64_t attempt) const {
  std::uint64_t base = base_delay_ns == 0 ? 1 : base_delay_ns;
  for (std::uint64_t i = 0; i < attempt && base < max_delay_ns; ++i) {
    base *= 2;
  }
  if (base > max_delay_ns) base = max_delay_ns;
  // Seeded jitter in [1 - jitter_fraction, 1 + jitter_fraction): the same
  // (policy, attempt) pair always yields the same delay.
  const double unit =
      static_cast<double>(mix64(seed ^ (attempt + 1)) >> 11) * 0x1.0p-53;
  const double factor = 1.0 - jitter_fraction + 2.0 * jitter_fraction * unit;
  const double scaled = static_cast<double>(base) * factor;
  std::uint64_t delay =
      scaled <= 1.0 ? 1 : static_cast<std::uint64_t>(scaled);
  if (delay > max_delay_ns) delay = max_delay_ns;
  return delay;
}

FleetCollector::FleetCollector(CollectorConfig config)
    : config_(std::move(config)) {
  vantages_.resize(config_.vantages);
  pending_.resize(config_.vantages);
  for (std::uint64_t v = 0; v < config_.vantages; ++v) {
    // 'v', not "v": GCC 12 -O3 flags a one-char literal + std::string with a
    // -Werror=restrict false positive.
    vantages_[v].info.name = 'v' + std::to_string(v);
  }
}

void FleetCollector::quarantine(const std::string& file,
                                std::uint64_t vantage,
                                QuarantineReason reason,
                                std::uint64_t offset) {
  quarantined_.push_back(QuarantineRecord{file, vantage, reason, offset});
  ++quarantine_counts_[static_cast<std::size_t>(reason)];
  if (vantage < vantages_.size()) {
    ++vantages_[vantage].frames_quarantined;
  }
}

void FleetCollector::ingest_file(const SpoolEntry& entry) {
  seen_files_.insert(entry.path);
  if (entry.vantage >= config_.vantages) {
    quarantine(entry.path, entry.vantage, QuarantineReason::kUnknownVantage,
               0);
    return;
  }
  std::vector<std::uint8_t> bytes;
  if (auto err = load_frame_file(entry.path, &bytes)) {
    quarantine(entry.path, entry.vantage, QuarantineReason::kIoError,
               err.offset);
    return;
  }
  SnapshotFrame frame;
  if (auto err = decode_frame(bytes, &frame)) {
    quarantine(entry.path, entry.vantage, reason_for(err.code), err.offset);
    return;
  }
  if (frame.header.vantage != entry.vantage) {
    // The sealed header and the spool slot disagree: a misdelivered frame.
    quarantine(entry.path, entry.vantage, QuarantineReason::kBadFrame, 12);
    return;
  }
  VantageStatus& status = vantages_[entry.vantage];
  auto& pending = pending_[entry.vantage];
  if (frame.header.sequence < status.next_sequence ||
      pending.contains(frame.header.sequence)) {
    quarantine(entry.path, entry.vantage,
               QuarantineReason::kDuplicateSequence, 20);
    return;
  }
  pending.emplace(frame.header.sequence,
                  PendingFrame{std::move(frame), entry.path});
}

bool FleetCollector::apply_frame(std::uint64_t vantage,
                                 PendingFrame&& pending) {
  VantageStatus& status = vantages_[vantage];
  SnapshotFrame& frame = pending.frame;
  switch (frame.header.kind) {
    case FrameKind::kManifest: {
      if (frame.header.sequence != 0) {
        quarantine(pending.file, vantage, QuarantineReason::kBadFrame, 20);
        return false;
      }
      status.has_manifest = true;
      status.info = frame.info;
      if (status.info.name.empty()) {
        status.info.name = 'v' + std::to_string(vantage);
      }
      status.state = VantageState::kLive;
      ++status.frames_accepted;
      return true;
    }
    case FrameKind::kEpoch:
    case FrameKind::kFinal: {
      if (status.has_stats && (frame.header.epoch <= status.last_epoch ||
                               frame.header.cursor < status.cursor)) {
        quarantine(pending.file, vantage, QuarantineReason::kStaleEpoch, 28);
        return false;
      }
      // Skew gate: with a manifest interval the cursor pins which barrier
      // this frame really describes; a claimed epoch within the grace
      // window heals losslessly (the frame is applied, the report renders
      // the aligned epoch), beyond it the frame is quarantined and the
      // cursor stays put — the exact loss window charges the vantage.
      std::int64_t skew = 0;
      if (status.has_manifest && status.info.epoch_interval > 0) {
        skew = frame_epoch_skew(frame.header, status.info.epoch_interval);
        const std::uint64_t magnitude = static_cast<std::uint64_t>(
            skew < 0 ? -skew : skew);
        if (magnitude > config_.skew_grace_epochs) {
          quarantine(pending.file, vantage,
                     QuarantineReason::kExcessiveSkew, 28);
          return false;
        }
      }
      if (!frame.has_stats) {
        quarantine(pending.file, vantage, QuarantineReason::kBadFrame, 44);
        return false;
      }
      // Cross-validation before any state moves: the counters must account
      // for exactly the envelope cursor (the per-vantage identity, summed
      // without wrap-around), and a histogram section's mass must be the
      // cumulative sample count.
      if (!frame.stats.accounts_for(frame.header.cursor) ||
          (frame.has_rtt_histogram &&
           frame.rtt_histogram.total() != frame.stats.samples)) {
        quarantine(pending.file, vantage, QuarantineReason::kStatsMismatch,
                   36);
        return false;
      }
      status.last_epoch = frame.header.epoch;
      status.cursor = frame.header.cursor;
      status.epoch_skew = skew;
      status.stats = frame.stats;
      status.has_stats = true;
      if (frame.has_rtt_histogram) {
        // Cumulative like every other state section: replace, don't add.
        status.rtt_histogram = analytics::LogHistogram::from_layout(
            frame.rtt_histogram.log_min, frame.rtt_histogram.log_step,
            std::move(frame.rtt_histogram.bins), frame.rtt_histogram.seen_min,
            frame.rtt_histogram.seen_max);
        status.has_rtt_histogram = true;
      }
      ++status.frames_accepted;
      status.state = frame.header.kind == FrameKind::kFinal
                         ? VantageState::kComplete
                         : VantageState::kLive;
      return true;
    }
  }
  quarantine(pending.file, vantage, QuarantineReason::kBadFrame, 44);
  return false;
}

void FleetCollector::drain_pending(std::uint64_t vantage) {
  VantageStatus& status = vantages_[vantage];
  auto& pending = pending_[vantage];
  bool blocked_by_gap = false;
  while (!pending.empty()) {
    if (status.state == VantageState::kComplete) {
      // Frames after an accepted final frame are protocol violations.
      for (auto& [seq, frame] : pending) {
        quarantine(frame.file, vantage, QuarantineReason::kStaleEpoch, 20);
      }
      pending.clear();
      break;
    }
    auto it = pending.find(status.next_sequence);
    if (it == pending.end()) {
      // Sequence gap: hold it open for the grace window (a reordered
      // frame may still fill it), then skip to the next available frame —
      // state frames are cumulative, so skipping costs no accounting.
      if (status.gap_attempts < config_.gap_grace_attempts &&
          !status.fenced) {
        blocked_by_gap = true;
        break;
      }
      const std::uint64_t next_available = pending.begin()->first;
      status.frames_missing += next_available - status.next_sequence;
      status.next_sequence = next_available;
      status.gap_attempts = 0;
      continue;
    }
    PendingFrame frame = std::move(it->second);
    pending.erase(it);
    ++status.next_sequence;
    status.gap_attempts = 0;
    apply_frame(vantage, std::move(frame));
  }
  if (blocked_by_gap) {
    ++status.gap_attempts;
  }
}

void FleetCollector::fence(std::uint64_t vantage) {
  VantageStatus& status = vantages_[vantage];
  status.fenced = true;
  // Salvage everything reachable: gaps will never fill now, so skip them
  // all and accept whatever state the stuck frames carry.
  drain_pending(vantage);
  if (status.state == VantageState::kComplete) return;
  status.state = status.frames_accepted > 0 ? VantageState::kStale
                                            : VantageState::kMissing;
}

bool FleetCollector::poll() {
  ++polls_;
  bool any_progress = false;
  for (const auto& entry : scan_spool(config_.spool_dir)) {
    if (seen_files_.contains(entry.path)) continue;
    ingest_file(entry);
  }
  for (std::uint64_t v = 0; v < config_.vantages; ++v) {
    VantageStatus& status = vantages_[v];
    if (status.state == VantageState::kComplete || status.fenced) continue;
    const std::uint64_t before_accepted = status.frames_accepted;
    const std::uint64_t before_sequence = status.next_sequence;
    drain_pending(v);
    const bool progress = status.frames_accepted != before_accepted ||
                          status.next_sequence != before_sequence;
    any_progress = any_progress || progress;
    if (progress) {
      status.attempts_without_progress = 0;
    } else if (++status.attempts_without_progress >=
               config_.fence_after_attempts) {
      fence(v);
    }
  }
  return any_progress;
}

bool FleetCollector::resolved() const {
  for (const auto& status : vantages_) {
    if (status.state != VantageState::kComplete && !status.fenced) {
      return false;
    }
  }
  return true;
}

void FleetCollector::finalize() {
  for (std::uint64_t v = 0; v < config_.vantages; ++v) {
    if (vantages_[v].state != VantageState::kComplete &&
        !vantages_[v].fenced) {
      fence(v);
    }
  }
}

std::uint64_t FleetCollector::run() {
  std::uint64_t attempt = 0;
  while (!resolved() && attempt < config_.max_attempts) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(config_.retry.delay_ns(attempt)));
    }
    poll();
    ++attempt;
  }
  finalize();
  return attempt;
}

std::uint64_t FleetCollector::epoch_watermark() const {
  // Fenced stale/missing vantages are excluded: the fleet cannot wait on a
  // vantage it has already given up on (its loss window is charged
  // instead). Complete and live vantages all gate the watermark, so a live
  // vantage with no accepted state pins it at zero.
  std::uint64_t watermark = ~std::uint64_t{0};
  bool any = false;
  for (const auto& status : vantages_) {
    if (status.state == VantageState::kStale ||
        status.state == VantageState::kMissing) {
      continue;
    }
    any = true;
    const std::uint64_t aligned = status.aligned_epoch();
    if (aligned < watermark) watermark = aligned;
  }
  return any ? watermark : 0;
}

analytics::LogHistogram FleetCollector::merged_rtt_histogram(
    std::uint64_t* contributors) const {
  // Start from the default layout: every exporter bins with it today, so
  // the merge is the exact bin-by-bin path; a foreign layout still merges
  // mass-conservingly by bin midpoint.
  analytics::LogHistogram merged;
  std::uint64_t count = 0;
  for (const auto& status : vantages_) {
    if (!status.has_rtt_histogram) continue;
    ++count;
    merged.merge(status.rtt_histogram);
  }
  if (contributors != nullptr) *contributors = count;
  return merged;
}

std::string FleetCollector::report_text() const {
  std::string out;
  out.reserve(4096);
  const auto line = [&out](const std::string& name, std::uint64_t value) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  const auto vline = [&out](const std::string& name,
                            const std::string& vantage,
                            std::uint64_t value) {
    out += name;
    out += "{vantage=\"";
    out += vantage;
    out += "\"} ";
    out += std::to_string(value);
    out += '\n';
  };

  std::uint64_t complete = 0;
  std::uint64_t live = 0;
  std::uint64_t stale = 0;
  std::uint64_t missing = 0;
  std::uint64_t accepted = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t frames_missing = 0;
  core::DartStats totals;
  std::uint64_t total_routed = 0;
  std::uint64_t total_lost_to_vantage = 0;
  for (const auto& status : vantages_) {
    switch (status.state) {
      case VantageState::kComplete:
        ++complete;
        break;
      case VantageState::kLive:
        ++live;
        break;
      case VantageState::kStale:
        ++stale;
        break;
      case VantageState::kMissing:
        ++missing;
        break;
    }
    accepted += status.frames_accepted;
    quarantined += status.frames_quarantined;
    frames_missing += status.frames_missing;
    totals += status.stats;
    total_routed +=
        status.has_manifest ? status.info.expected_routed : status.cursor;
    total_lost_to_vantage += status.lost_to_vantage();
  }
  // Files quarantined before any vantage could be charged (unknown ids).
  quarantined +=
      quarantine_counts_[static_cast<std::size_t>(
          QuarantineReason::kUnknownVantage)];

  out += "# Dart fleet merged report v1\n";
  line("fleet_vantages", vantages_.size());
  line("fleet_vantages_complete", complete);
  line("fleet_vantages_live", live);
  line("fleet_vantages_stale", stale);
  line("fleet_vantages_missing", missing);
  line("fleet_frames_accepted_total", accepted);
  line("fleet_frames_quarantined_total", quarantined);
  line("fleet_frames_missing_total", frames_missing);
  line("fleet_epoch_watermark", epoch_watermark());
  for (std::size_t r = 0; r < kQuarantineReasons; ++r) {
    out += "fleet_frames_quarantined_total{reason=\"";
    out += to_string(static_cast<QuarantineReason>(r));
    out += "\"} ";
    out += std::to_string(quarantine_counts_[r]);
    out += '\n';
  }
  for (const auto& status : vantages_) {
    const std::string& name = status.info.name;
    vline("fleet_vantage_state", name,
          static_cast<std::uint64_t>(status.state));
    vline("fleet_routed_total", name,
          status.has_manifest ? status.info.expected_routed : status.cursor);
    vline("fleet_observed_cursor", name, status.cursor);
    vline("fleet_processed_total", name, status.stats.packets_processed);
    vline("fleet_shed_total", name, status.stats.runtime.shed_packets);
    vline("fleet_abandoned_total", name,
          status.stats.runtime.abandoned_packets);
    vline("fleet_lost_to_crash_total", name,
          status.stats.runtime.lost_to_crash);
    vline("fleet_lost_to_vantage_total", name, status.lost_to_vantage());
    vline("fleet_samples_total", name, status.stats.samples);
    vline("fleet_recirculations_total", name, status.stats.recirculations);
    // Aligned, not claimed: a within-grace skewed clock must not perturb
    // one byte of the canonical report (skew_report_text() carries the
    // claimed epochs and signed estimates).
    vline("fleet_last_epoch", name, status.aligned_epoch());
    vline("fleet_frames_accepted_total", name, status.frames_accepted);
    vline("fleet_frames_quarantined_total", name, status.frames_quarantined);
    vline("fleet_frames_missing_total", name, status.frames_missing);
  }
  line("fleet_routed_total", total_routed);
  line("fleet_processed_total", totals.packets_processed);
  line("fleet_shed_total", totals.runtime.shed_packets);
  line("fleet_abandoned_total", totals.runtime.abandoned_packets);
  line("fleet_lost_to_crash_total", totals.runtime.lost_to_crash);
  line("fleet_lost_to_vantage_total", total_lost_to_vantage);
  line("fleet_samples_total", totals.samples);
  line("fleet_recirculations_total", totals.recirculations);

  // Fleet-wide RTT distribution, folded from the vantages' cumulative
  // histogram sections. Quantile rows render only when mass exists —
  // quantiles of an empty distribution are not numbers worth printing —
  // but the contributor/sample counts always render, keeping the schema
  // decidable from the report alone.
  std::uint64_t hist_vantages = 0;
  const analytics::LogHistogram merged = merged_rtt_histogram(&hist_vantages);
  line("fleet_rtt_vantages", hist_vantages);
  line("fleet_rtt_samples_total", merged.count());
  if (merged.count() > 0) {
    line("fleet_rtt_min_ns", merged.min());
    line("fleet_rtt_max_ns", merged.max());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      out += "fleet_rtt_ns{quantile=\"";
      out += format_double(q);
      out += "\"} ";
      out += format_double(merged.quantile(q));
      out += '\n';
    }
  }
  return out;
}

std::string FleetCollector::skew_report_text() const {
  std::string out;
  out.reserve(1024);
  out += "# Dart fleet skew report v1\n";
  out += "fleet_epoch_watermark " + std::to_string(epoch_watermark()) + '\n';
  out += "fleet_skew_grace_epochs " +
         std::to_string(config_.skew_grace_epochs) + '\n';
  for (const auto& status : vantages_) {
    const std::string label = "{vantage=\"" + status.info.name + "\"} ";
    out += "fleet_claimed_epoch" + label + std::to_string(status.last_epoch) +
           '\n';
    out += "fleet_aligned_epoch" + label +
           std::to_string(status.aligned_epoch()) + '\n';
    out += "fleet_epoch_skew" + label + std::to_string(status.epoch_skew) +
           '\n';
  }
  return out;
}

bool check_fleet_identity(const std::string& report_text,
                          std::string* error) {
  static constexpr std::string_view kTerms[] = {
      "processed", "shed", "abandoned", "lost_to_crash", "lost_to_vantage"};
  return telemetry::check_routed_identity(
      telemetry::parse_prometheus(report_text), "fleet_", "vantage", kTerms,
      error);
}

}  // namespace dart::fleet
