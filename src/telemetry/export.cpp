#include "telemetry/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/stats.hpp"

namespace dart::telemetry {
namespace {

std::uint64_t as_count(double value) {
  if (value <= 0.0) return 0;
  // Counters near 2^64 survive the text round-trip as the double closest
  // to 2^64; llround would overflow (UB), so saturate explicitly. Doubles
  // in [2^63, 2^64) convert directly without rounding help.
  if (value >= 18446744073709551615.0) return ~std::uint64_t{0};
  if (value >= 9223372036854775808.0) return static_cast<std::uint64_t>(value);
  return static_cast<std::uint64_t>(std::llround(value));
}

/// Shortest round-trippable rendering: %.17g is byte-stable for identical
/// doubles, which is all the determinism contract needs.
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Quantile *labels* use the shortest rendering ("0.9", not
/// "0.90000000000000002"): they are identifiers consumers match on, not
/// measurements, and %g is just as deterministic for these constants.
std::string format_label(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
        break;
    }
  }
  return out;
}

void render_help(std::ostringstream& out, const std::string& name,
                 const std::string& help, const char* type) {
  if (!help.empty()) out << "# HELP " << name << ' ' << help << '\n';
  out << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

std::string to_prometheus(const TelemetrySnapshot& snapshot) {
  std::ostringstream out;
  for (const CounterSnapshot& counter : snapshot.counters) {
    render_help(out, counter.name, counter.help, "counter");
    if (counter.per_slot.size() > 1) {
      for (std::size_t i = 0; i < counter.per_slot.size(); ++i) {
        out << counter.name << "{shard=\"" << i << "\"} "
            << counter.per_slot[i] << '\n';
      }
    }
    out << counter.name << ' ' << counter.total << '\n';
  }
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    render_help(out, gauge.name, gauge.help, "gauge");
    std::int64_t total = 0;
    if (gauge.per_slot.size() > 1) {
      for (std::size_t i = 0; i < gauge.per_slot.size(); ++i) {
        out << gauge.name << "{shard=\"" << i << "\"} " << gauge.per_slot[i]
            << '\n';
      }
    }
    for (const std::int64_t v : gauge.per_slot) total += v;
    out << gauge.name << ' ' << total << '\n';
  }
  for (const HistogramSnapshot& hist : snapshot.histograms) {
    render_help(out, hist.name, hist.help, "summary");
    for (const double q : kExportQuantiles) {
      out << hist.name << "{quantile=\"" << format_label(q) << "\"} "
          << format_double(hist.folded.quantile(q)) << '\n';
    }
    if (hist.per_slot_counts.size() > 1) {
      for (std::size_t i = 0; i < hist.per_slot_counts.size(); ++i) {
        out << hist.name << "_count{shard=\"" << i << "\"} "
            << hist.per_slot_counts[i] << '\n';
      }
    }
    out << hist.name << "_count " << hist.folded.count() << '\n';
    out << hist.name << "_min " << hist.folded.min() << '\n';
    out << hist.name << "_max " << hist.folded.max() << '\n';
  }
  return out.str();
}

std::string to_json(const TelemetrySnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"version\": 1,\n  \"counters\": [";
  for (std::size_t c = 0; c < snapshot.counters.size(); ++c) {
    const CounterSnapshot& counter = snapshot.counters[c];
    out << (c == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(counter.name)
        << "\", \"help\": \"" << json_escape(counter.help)
        << "\", \"deterministic\": "
        << (counter.deterministic ? "true" : "false") << ", \"per_slot\": [";
    for (std::size_t i = 0; i < counter.per_slot.size(); ++i) {
      out << (i == 0 ? "" : ", ") << counter.per_slot[i];
    }
    out << "], \"total\": " << counter.total << '}';
  }
  out << "\n  ],\n  \"gauges\": [";
  for (std::size_t g = 0; g < snapshot.gauges.size(); ++g) {
    const GaugeSnapshot& gauge = snapshot.gauges[g];
    out << (g == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(gauge.name)
        << "\", \"help\": \"" << json_escape(gauge.help)
        << "\", \"deterministic\": "
        << (gauge.deterministic ? "true" : "false") << ", \"per_slot\": [";
    for (std::size_t i = 0; i < gauge.per_slot.size(); ++i) {
      out << (i == 0 ? "" : ", ") << gauge.per_slot[i];
    }
    out << "]}";
  }
  out << "\n  ],\n  \"histograms\": [";
  for (std::size_t h = 0; h < snapshot.histograms.size(); ++h) {
    const HistogramSnapshot& hist = snapshot.histograms[h];
    out << (h == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(hist.name)
        << "\", \"help\": \"" << json_escape(hist.help)
        << "\", \"deterministic\": "
        << (hist.deterministic ? "true" : "false")
        << ", \"count\": " << hist.folded.count()
        << ", \"min\": " << hist.folded.min()
        << ", \"max\": " << hist.folded.max() << ", \"quantiles\": [";
    for (std::size_t q = 0; q < std::size(kExportQuantiles); ++q) {
      out << (q == 0 ? "" : ", ") << "{\"q\": "
          << format_label(kExportQuantiles[q]) << ", \"value\": "
          << format_double(hist.folded.quantile(kExportQuantiles[q])) << '}';
    }
    out << "], \"per_slot_counts\": [";
    for (std::size_t i = 0; i < hist.per_slot_counts.size(); ++i) {
      out << (i == 0 ? "" : ", ") << hist.per_slot_counts[i];
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::vector<PromSample> parse_prometheus(const std::string& text) {
  std::vector<PromSample> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    PromSample sample;
    std::size_t value_start = 0;
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    if (brace != std::string::npos &&
        (space == std::string::npos || brace < space)) {
      const std::size_t close = line.find('}', brace);
      if (close == std::string::npos) continue;
      sample.name = line.substr(0, brace);
      // k="v" pairs, comma separated; our renderer never escapes quotes
      // inside values.
      std::size_t pos = brace + 1;
      while (pos < close) {
        const std::size_t eq = line.find('=', pos);
        if (eq == std::string::npos || eq >= close) break;
        const std::size_t vopen = line.find('"', eq);
        if (vopen == std::string::npos || vopen >= close) break;
        const std::size_t vclose = line.find('"', vopen + 1);
        if (vclose == std::string::npos || vclose > close) break;
        sample.labels.emplace(line.substr(pos, eq - pos),
                              line.substr(vopen + 1, vclose - vopen - 1));
        pos = vclose + 1;
        if (pos < close && line[pos] == ',') ++pos;
      }
      value_start = close + 1;
    } else {
      if (space == std::string::npos) continue;
      sample.name = line.substr(0, space);
      value_start = space;
    }
    if (sample.name.empty()) continue;  // "{...} v" or leading space
    while (value_start < line.size() && line[value_start] == ' ') {
      ++value_start;
    }
    if (value_start >= line.size()) continue;
    char* end = nullptr;
    sample.value = std::strtod(line.c_str() + value_start, &end);
    if (end == line.c_str() + value_start) continue;
    // Our renderers never emit NaN/Inf; a non-finite value in scraped text
    // is damage (or an adversarial feed) and would poison every aggregate
    // it touches downstream, so drop the sample rather than propagate it.
    if (!std::isfinite(sample.value)) continue;
    samples.push_back(std::move(sample));
  }
  return samples;
}

double prom_value(const std::vector<PromSample>& samples,
                  const std::string& name, double fallback) {
  for (const PromSample& sample : samples) {
    if (sample.name == name && sample.labels.empty()) return sample.value;
  }
  return fallback;
}

double labeled_value(const std::vector<PromSample>& samples,
                     const std::string& name, const std::string& label,
                     const std::string& value) {
  for (const PromSample& sample : samples) {
    if (sample.name != name) continue;
    const auto it = sample.labels.find(label);
    if (it != sample.labels.end() && it->second == value) return sample.value;
  }
  return 0.0;
}

bool check_routed_identity(const std::vector<PromSample>& samples,
                           const std::string& prefix,
                           const std::string& label,
                           std::span<const std::string_view> terms,
                           std::string* error) {
  std::vector<std::string> names{prefix + "routed_total"};
  for (const std::string_view term : terms) {
    names.push_back(prefix + std::string(term) + "_total");
  }
  // Each label value's row of `names` ("" keys the aggregate row), and
  // each name's labelled values.
  std::map<std::string, std::vector<std::uint64_t>> rows;
  std::vector<std::vector<std::uint64_t>> labelled(names.size());
  for (const PromSample& sample : samples) {
    const auto name = std::find(names.begin(), names.end(), sample.name);
    const auto key = sample.labels.find(label);
    const bool aggregate = sample.labels.empty();
    if (name == names.end() || (!aggregate && key == sample.labels.end())) {
      continue;
    }
    const std::size_t i = static_cast<std::size_t>(name - names.begin());
    std::vector<std::uint64_t>& row = rows[aggregate ? "" : key->second];
    row.resize(names.size());
    row[i] = as_count(sample.value);
    if (!aggregate) labelled[i].push_back(row[i]);
  }
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (rows.count("") == 0) return fail("no aggregate " + names[0] + " row");
  for (const auto& [key, row] : rows) {
    if (core::sums_to(std::span(row).subspan(1), row[0])) continue;
    std::string message = "identity violated for ";
    message += key.empty() ? "the aggregate" : label + " \"" + key + '"';
    message += ": routed " + std::to_string(row[0]) + " !=";
    for (std::size_t i = 1; i < row.size(); ++i) {
      message += i == 1 ? " " : " + ";
      message += terms[i - 1];
      message += ' ' + std::to_string(row[i]);
    }
    return fail(message);
  }
  // Once any row is labelled, each aggregate value is the sum of its
  // labelled values.
  for (std::size_t i = 0; rows.size() > 1 && i < names.size(); ++i) {
    if (!core::sums_to(labelled[i], rows[""][i])) {
      return fail("aggregate " + names[i] + " != the sum of its " + label +
                  " rows");
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

bool write_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace dart::telemetry
