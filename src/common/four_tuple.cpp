#include "common/four_tuple.hpp"

namespace dart {

FourTuple FourTuple::canonical() const {
  FourTuple rev = reversed();
  return *this < rev ? *this : rev;
}

std::string FourTuple::to_string() const {
  return src_ip.to_string() + ":" + std::to_string(src_port) + " -> " +
         dst_ip.to_string() + ":" + std::to_string(dst_port);
}

}  // namespace dart
