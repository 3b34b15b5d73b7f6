// Snapshot rendering: Prometheus text exposition and versioned JSON.
//
// Both renderers consume the already-sorted TelemetrySnapshot and emit
// byte-stable text for identical snapshots — the property the determinism
// test and the CI golden check pin. parse_prometheus() is the inverse used
// by dart-top and the tests; it reads the subset of the exposition format
// these renderers produce (no escaped label values, no exemplars).
#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/registry.hpp"

namespace dart::telemetry {

/// Prometheus text exposition format. Counters render one line per shard
/// plus an aggregate; histograms render fixed quantiles (kExportQuantiles)
/// of the cross-shard fold plus _count/_min/_max.
std::string to_prometheus(const TelemetrySnapshot& snapshot);

/// Versioned JSON document with the same content as to_prometheus.
std::string to_json(const TelemetrySnapshot& snapshot);

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parse the exposition subset produced by to_prometheus. Comment lines
/// and blank lines are skipped; malformed lines are dropped silently (the
/// caller sees fewer samples, never garbage).
std::vector<PromSample> parse_prometheus(const std::string& text);

/// Convenience over parse_prometheus: value of the sample matching `name`
/// with no labels (the aggregate line), or `fallback` if absent.
double prom_value(const std::vector<PromSample>& samples,
                  const std::string& name, double fallback = 0.0);

/// Value of the sample `name{label="value"}`, or 0 if absent.
double labeled_value(const std::vector<PromSample>& samples,
                     const std::string& name, const std::string& label,
                     const std::string& value);

/// The accounted terms of the routed identity, named as the stats tables
/// export them: processed + shed + abandoned + lost_to_crash == routed.
inline constexpr std::string_view kAccountedTerms[] = {
    "processed", "shed", "abandoned", "lost_to_crash"};

/// The routed identity in exported text. With `<m>` short for the row
/// `<prefix><m>_total`, it requires, for the unlabelled aggregate rows and
/// for each `label` value that labels any of these rows,
///     routed == the sum of `terms`,
/// and, once any of them is labelled, that each aggregate row equals the
/// sum of its labelled rows. Sums never wrap, and the aggregate rows must
/// exist. On a violation returns false and names it in `*error`; the
/// per-row check runs first, so the message names the offending label.
bool check_routed_identity(const std::vector<PromSample>& samples,
                           const std::string& prefix,
                           const std::string& label,
                           std::span<const std::string_view> terms,
                           std::string* error);

/// Write `content` to `path` via a temp file + rename so a concurrent
/// reader (dart-top in watch mode) never observes a torn snapshot — the
/// same publish discipline as the checkpoint writer. Returns false on any
/// I/O failure.
bool write_atomic(const std::string& path, const std::string& content);

}  // namespace dart::telemetry
