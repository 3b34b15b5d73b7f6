#include "analytics/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dart::analytics {

LogHistogram::LogHistogram(Timestamp min_value, Timestamp max_value,
                           std::uint32_t bins_per_decade) {
  const double lo = std::log10(static_cast<double>(std::max<Timestamp>(
      min_value, 1)));
  const double hi = std::log10(static_cast<double>(
      std::max(max_value, min_value + 1)));
  log_min_ = lo;
  log_step_ = 1.0 / static_cast<double>(std::max<std::uint32_t>(
      bins_per_decade, 1));
  const std::size_t bins =
      static_cast<std::size_t>(std::ceil((hi - lo) / log_step_)) + 1;
  counts_.assign(bins, 0);
}

std::size_t LogHistogram::bin_of(Timestamp value) const {
  return bin_for_log(
      std::log10(static_cast<double>(std::max<Timestamp>(value, 1))));
}

std::size_t LogHistogram::bin_for_log(double log_value) const {
  const double raw = (log_value - log_min_) / log_step_;
  if (raw <= 0.0) return 0;
  const std::size_t bin = static_cast<std::size_t>(raw);
  return std::min(bin, counts_.size() - 1);
}

void LogHistogram::add(Timestamp value) {
  if (total_ == 0) {
    seen_min_ = value;
    seen_max_ = value;
  } else {
    seen_min_ = std::min(seen_min_, value);
    seen_max_ = std::max(seen_max_, value);
  }
  ++counts_[bin_of(value)];
  ++total_;
}

double LogHistogram::bin_value(std::size_t i) const {
  // Geometric midpoint of the bin.
  const double lo = log_min_ + static_cast<double>(i) * log_step_;
  return std::pow(10.0, lo + log_step_ / 2.0);
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  // The target rank is at least one sample: a plain q*total_ is 0 at q=0,
  // which "cumulative >= target" satisfies at bin 0 even when that bin is
  // empty — answering a value no sample ever took.
  const double target = std::max(
      1.0, std::clamp(q, 0.0, 1.0) * static_cast<double>(total_));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= target) return bin_value(i);
  }
  return bin_value(counts_.size() - 1);
}

double LogHistogram::cdf_at(Timestamp threshold) const {
  if (total_ == 0) return 0.0;
  const std::size_t limit = bin_of(threshold);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= limit; ++i) cumulative += counts_[i];
  return static_cast<double>(cumulative) / static_cast<double>(total_);
}

bool LogHistogram::same_layout(const LogHistogram& other) const {
  return log_min_ == other.log_min_ && log_step_ == other.log_step_ &&
         counts_.size() == other.counts_.size();
}

void LogHistogram::absorb(LogHistogram&& other) {
  if (total_ == 0 && same_layout(other)) {
    *this = std::move(other);
  } else {
    merge(other);
  }
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.total_ == 0) return;
  if (same_layout(other)) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  } else {
    // Differing layouts (range, resolution, or bin count): remap each
    // source bin's mass by its representative value, clamping to the edge
    // bins exactly as add() would. Every sample lands somewhere, so the
    // totals — and with them every quantile()/cdf_at() denominator — stay
    // exact. The pre-fix code summed only min(size, other.size) bins but
    // still added the full other.total_, silently vaporizing tail-bin mass
    // while inflating the denominator.
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      if (other.counts_[i] == 0) continue;
      const double mid =
          other.log_min_ + (static_cast<double>(i) + 0.5) * other.log_step_;
      counts_[bin_for_log(mid)] += other.counts_[i];
    }
  }
  if (total_ == 0) {
    seen_min_ = other.seen_min_;
    seen_max_ = other.seen_max_;
  } else {
    seen_min_ = std::min(seen_min_, other.seen_min_);
    seen_max_ = std::max(seen_max_, other.seen_max_);
  }
  total_ += other.total_;
}

LogHistogram LogHistogram::from_layout(double log_min, double log_step,
                                       std::vector<std::uint64_t> bins,
                                       Timestamp seen_min,
                                       Timestamp seen_max) {
  LogHistogram hist;
  hist.log_min_ = log_min;
  hist.log_step_ = log_step;
  hist.total_ = 0;
  for (const std::uint64_t count : bins) hist.total_ += count;
  hist.counts_ = std::move(bins);
  if (hist.counts_.empty()) hist.counts_.assign(1, 0);
  hist.seen_min_ = seen_min;
  hist.seen_max_ = seen_max;
  return hist;
}

}  // namespace dart::analytics
