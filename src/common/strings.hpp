// Small text helpers shared by the benchmark harnesses, examples and the
// command-line tools.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace dart {

/// Fixed-precision decimal formatting (std::to_string prints 6 digits and
/// std::format is not consistently available on the targeted toolchains).
std::string format_double(double value, int precision);

/// "12.3%" style percentage of a ratio in [0, 1] (not pre-multiplied).
std::string format_percent(double ratio, int precision = 1);

/// Group thousands for readability: 1234567 -> "1,234,567".
std::string format_count(std::uint64_t value);

/// Strict numeric command-line value: the whole token is a decimal integer
/// in [min, max] and in T's range. No suffix ("12x"), exponent ("1e3"),
/// whitespace or (for unsigned T) sign; a refused token leaves `out`
/// untouched, so a typo is never read as its numeric prefix or wrapped
/// into a narrower field.
template <std::integral T>
bool parse_integer(
    std::string_view text, T* out,
    std::type_identity_t<T> min = std::numeric_limits<T>::min(),
    std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

/// The same for a rate or a ratio: a finite decimal number >= 0 ("1.5",
/// "2e-1" and "3" pass; "inf", "nan", "-1" and "1.5x" do not).
bool parse_nonnegative(std::string_view text, double* out);

/// A minimal fixed-width text table: add a header and rows, then render.
/// Used by every bench binary so the regenerated figures print uniformly.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dart
