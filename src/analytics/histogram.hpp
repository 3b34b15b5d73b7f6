// Logarithmically binned streaming histogram for RTT distributions.
//
// Used where keeping every sample is wasteful (per-prefix aggregation) and
// for printing the CDF/CCDF series of Figures 6, 9b, and 9c. Bin edges grow
// geometrically from `min_value`, giving constant relative resolution across
// the microsecond-to-minute RTT range.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace dart::analytics {

class LogHistogram {
 public:
  /// Bins span [min_value, max_value] with `bins_per_decade` geometric bins
  /// per 10x; values outside are clamped to the edge bins.
  LogHistogram(Timestamp min_value = usec(10), Timestamp max_value = sec(120),
               std::uint32_t bins_per_decade = 20);

  void add(Timestamp value);

  std::uint64_t count() const { return total_; }
  Timestamp min() const { return seen_min_; }
  Timestamp max() const { return seen_max_; }

  /// Approximate quantile (q in [0, 1]) via bin interpolation. The target
  /// rank is at least one sample, so q=0 answers the first *occupied* bin
  /// (an empty leading bin never satisfies "cumulative 0 >= 0").
  double quantile(double q) const;

  /// Fraction of values <= threshold.
  double cdf_at(Timestamp threshold) const;

  /// Representative value (geometric midpoint) of bin `i`.
  double bin_value(std::size_t i) const;
  const std::vector<std::uint64_t>& bins() const { return counts_; }

  /// Bin that `value` lands in (clamped to the edge bins, like add()).
  std::size_t bin_index(Timestamp value) const { return bin_of(value); }

  /// Bin-edge geometry, exported so external aggregators (the telemetry
  /// fold) can mirror the layout exactly.
  double log_min() const { return log_min_; }
  double log_step() const { return log_step_; }

  /// True when `other` has byte-identical binning (same geometry and bin
  /// count), i.e. merge() will be an exact bin-by-bin sum.
  bool same_layout(const LogHistogram& other) const;

  /// Fold another histogram's mass into this one. Identical layouts merge
  /// bin by bin (exact); differing layouts are remapped by each source
  /// bin's representative value, clamped to this histogram's range like
  /// add() — every sample is preserved, so count() and the quantile/cdf
  /// denominators stay consistent either way.
  void merge(const LogHistogram& other);

  /// Steal `other`'s mass: a move when this histogram is empty and shares
  /// `other`'s layout, merge() otherwise. Leaves `other` valid but
  /// unspecified.
  void absorb(LogHistogram&& other);

  /// Rebuild a histogram from an exported layout plus raw bin counts (the
  /// telemetry fold's import path). `seen_min`/`seen_max` seed the extreme
  /// trackers; total is the sum of `bins`.
  static LogHistogram from_layout(double log_min, double log_step,
                                  std::vector<std::uint64_t> bins,
                                  Timestamp seen_min, Timestamp seen_max);

 private:
  std::size_t bin_of(Timestamp value) const;
  std::size_t bin_for_log(double log_value) const;

  double log_min_;
  double log_step_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  Timestamp seen_min_ = 0;
  Timestamp seen_max_ = 0;
};

}  // namespace dart::analytics
