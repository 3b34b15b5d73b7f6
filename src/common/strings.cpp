#include "common/strings.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dart {

std::string format_double(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  return buffer;
}

std::string format_percent(double ratio, int precision) {
  return format_double(ratio * 100.0, precision) + "%";
}

std::string format_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i == lead || (i > lead && (i - lead) % 3 == 0)) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

bool parse_nonnegative(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value) ||
      value < 0.0) {
    return false;
  }
  *out = value;
  return true;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += c == 0 ? "| " : " | ";
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
    }
    line += " |\n";
    return line;
  };

  std::string out = render_row(header_);
  std::string rule = "|";
  for (std::size_t width : widths) rule += std::string(width + 2, '-') + "|";
  out += rule + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace dart
