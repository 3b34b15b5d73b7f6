#include "fleet/vantage_exporter.hpp"

#include <utility>

#include "runtime/fault_injection.hpp"

namespace dart::fleet {

VantageExporter::VantageExporter(VantageExporterConfig config,
                                 SnapshotSink& sink)
    : config_(std::move(config)), sink_(sink) {
  if (config_.name.empty()) {
    // 'v', not "v": GCC 12 -O3 flags a one-char literal + std::string with a
    // -Werror=restrict false positive.
    config_.name = 'v' + std::to_string(config_.vantage);
  }
}

bool VantageExporter::publish_manifest() {
  SnapshotFrame frame;
  frame.header.vantage = config_.vantage;
  frame.header.kind = FrameKind::kManifest;
  frame.has_info = true;
  frame.info.name = config_.name;
  frame.info.expected_routed = config_.expected_routed;
  frame.info.planned_epochs = config_.planned_epochs;
  frame.info.epoch_interval = config_.epoch_interval;
  return publish_frame(std::move(frame));
}

namespace {

RttHistogramSection to_section(const analytics::LogHistogram& hist) {
  RttHistogramSection section;
  section.log_min = hist.log_min();
  section.log_step = hist.log_step();
  section.seen_min = hist.min();
  section.seen_max = hist.max();
  section.bins = hist.bins();
  return section;
}

}  // namespace

bool VantageExporter::publish_epoch(
    std::uint64_t epoch, std::uint64_t cursor, const core::DartStats& stats,
    const analytics::LogHistogram* rtt_histogram) {
  return publish_state(FrameKind::kEpoch, epoch, cursor, stats,
                       rtt_histogram);
}

bool VantageExporter::publish_final(
    std::uint64_t epoch, std::uint64_t cursor, const core::DartStats& stats,
    const analytics::LogHistogram* rtt_histogram) {
  return publish_state(FrameKind::kFinal, epoch, cursor, stats,
                       rtt_histogram);
}

bool VantageExporter::publish_state(
    FrameKind kind, std::uint64_t epoch, std::uint64_t cursor,
    const core::DartStats& stats,
    const analytics::LogHistogram* rtt_histogram) {
  SnapshotFrame frame;
  frame.header.vantage = config_.vantage;
  frame.header.epoch = epoch;
  frame.header.cursor = cursor;
  frame.header.kind = kind;
  frame.has_stats = true;
  frame.stats = stats;
  if (rtt_histogram != nullptr) {
    frame.has_rtt_histogram = true;
    frame.rtt_histogram = to_section(*rtt_histogram);
  }
  return publish_frame(std::move(frame));
}

bool VantageExporter::publish_frame(SnapshotFrame frame) {
  if (killed_) return false;
  frame.header.sequence = next_sequence_;

  if (faults_ != nullptr) {
    if (faults_->exporter_before_publish(frames_published_) ==
        runtime::FaultPlan::Action::kExit) {
      // A kill fault models a crash *before* this frame left the process:
      // the sequence number is never consumed and nothing is delivered.
      killed_ = true;
      return false;
    }
    // Epoch skew rewrites the header *before* sealing: the frame is
    // internally consistent (valid CRC, stats matching the cursor), only
    // its claimed barrier is wrong — the collector's alignment layer, not
    // the envelope, has to catch it. The manifest carries no epoch.
    std::uint64_t skewed = 0;
    if (frame.header.kind != FrameKind::kManifest &&
        faults_->exporter_skewed_epoch(frame.header.epoch, &skewed)) {
      frame.header.epoch = skewed;
    }
  }

  const std::uint64_t sequence = next_sequence_++;
  std::vector<std::uint8_t> bytes = encode_frame(frame);

  if (faults_ != nullptr) {
    std::uint64_t keep_bytes = 0;
    if (faults_->exporter_truncate_bytes(sequence, &keep_bytes)) {
      // A torn publish: the sealed frame loses its tail. The CRC (or the
      // header length checks) must catch this on the collector side.
      if (keep_bytes < bytes.size()) {
        bytes.resize(static_cast<std::size_t>(keep_bytes));
      }
    }
    if (faults_->exporter_hold_frame(sequence)) {
      // Reorder: hold this frame back; it is delivered right after its
      // successor, so the collector sees sequence order s+1, s.
      held_ = HeldFrame{std::move(bytes), sequence};
      ++frames_published_;
      return true;
    }
  }

  if (!deliver(std::move(bytes), sequence)) {
    killed_ = true;
    return false;
  }
  ++frames_published_;
  if (held_.has_value()) {
    HeldFrame late = std::move(*held_);
    held_.reset();
    if (!deliver(std::move(late.bytes), late.sequence)) {
      killed_ = true;
      return false;
    }
  }
  return true;
}

bool VantageExporter::deliver(std::vector<std::uint8_t> bytes,
                              std::uint64_t sequence) {
  if (!sink_.publish(config_.vantage, publish_index_++, bytes)) {
    return false;
  }
  if (faults_ != nullptr && faults_->exporter_duplicate_frame(sequence)) {
    // Duplicate delivery occupies its own publish slot; the collector must
    // quarantine the second copy by sequence number, not crash.
    if (!sink_.publish(config_.vantage, publish_index_++, bytes)) {
      return false;
    }
  }
  return true;
}

}  // namespace dart::fleet
