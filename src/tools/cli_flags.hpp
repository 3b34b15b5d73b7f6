// Numeric flag values for the command-line tools: the whole token, read by
// the strict parsers in common/strings.hpp, or a usage error on stderr
// that names the tool, the flag and the refused text. Callers exit 2 when
// these return false.
#pragma once

#include <iostream>
#include <limits>
#include <string_view>
#include <type_traits>

#include "common/strings.hpp"

namespace dart::tools {

inline bool bad_value(std::string_view tool, std::string_view flag,
                      std::string_view text) {
  std::cerr << tool << ": bad value for " << flag << ": '" << text << "'\n";
  return false;
}

/// An integer flag in [min, max] (and in T's range: a port above 65535 is
/// refused, not wrapped).
template <typename T>
bool flag_value(std::string_view tool, std::string_view flag,
                std::string_view text, T* out,
                std::type_identity_t<T> min = std::numeric_limits<T>::min(),
                std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  return parse_integer(text, out, min, max) || bad_value(tool, flag, text);
}

/// A rate: a finite number >= 0.
inline bool flag_value(std::string_view tool, std::string_view flag,
                       std::string_view text, double* out) {
  return parse_nonnegative(text, out) || bad_value(tool, flag, text);
}

}  // namespace dart::tools
