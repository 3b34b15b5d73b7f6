// TCP connection four-tuples.
//
// A Dart flow is identified by the TCP 4-tuple (src IP, dst IP, src port,
// dst port) of the *data* (SEQ) direction; the matching ACK direction is the
// reversed tuple (Section 2.1). The Range Tracker keys on a 4-byte hash of
// the 12-byte tuple because the Tofino register key word size cannot hold the
// full tuple (Section 4, "Constrained signature wordsize").
#pragma once

#include <cstdint>
#include <string>

#include "common/hashing.hpp"
#include "common/ipv4.hpp"

namespace dart {

struct FourTuple {
  Ipv4Addr src_ip{};
  Ipv4Addr dst_ip{};
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  /// The tuple of traffic flowing in the opposite direction.
  constexpr FourTuple reversed() const {
    return FourTuple{dst_ip, src_ip, dst_port, src_port};
  }

  /// Direction-insensitive form: the lexicographically smaller of the tuple
  /// and its reverse. Both directions of a connection canonicalize equally.
  FourTuple canonical() const;

  // hotpath-ok: diagnostics and reports only, never on the packet path
  std::string to_string() const;

  friend constexpr bool operator==(const FourTuple&, const FourTuple&) =
      default;
};

/// Strict weak ordering for use in ordered containers.
constexpr bool operator<(const FourTuple& lhs, const FourTuple& rhs) {
  if (lhs.src_ip != rhs.src_ip) return lhs.src_ip < rhs.src_ip;
  if (lhs.dst_ip != rhs.dst_ip) return lhs.dst_ip < rhs.dst_ip;
  if (lhs.src_port != rhs.src_port) return lhs.src_port < rhs.src_port;
  return lhs.dst_port < rhs.dst_port;
}

/// 64-bit mix of the full tuple, suitable as an unordered_map hash and as the
/// base for the data plane's per-stage index hashes. Defined here so the
/// monitor's per-packet path compiles it into its probes (DESIGN.md §11).
inline std::uint64_t hash_tuple(const FourTuple& tuple) noexcept {
  const std::uint64_t ips = (std::uint64_t{tuple.src_ip.value()} << 32) |
                            tuple.dst_ip.value();
  const std::uint64_t ports = (std::uint64_t{tuple.src_port} << 16) |
                              tuple.dst_port;
  return mix64(ips ^ mix64(ports ^ 0x9e3779b97f4a7c15ULL));
}

/// Fold a hash_tuple() value down to the 4-byte signature the hardware
/// stores: flow_signature(t) == fold_signature(hash_tuple(t)) by definition.
/// Callers that already hold the 64-bit hash (the batched hot path, which
/// computes it once per packet role) derive the signature without rehashing.
constexpr std::uint32_t fold_signature(std::uint64_t tuple_hash) noexcept {
  return static_cast<std::uint32_t>(tuple_hash ^ (tuple_hash >> 32));
}

/// The 4-byte flow signature stored in RT/PT records in place of the 12-byte
/// tuple (paper Section 4). Collisions are possible by design.
inline std::uint32_t flow_signature(const FourTuple& tuple) noexcept {
  return fold_signature(hash_tuple(tuple));
}

struct FourTupleHash {
  std::size_t operator()(const FourTuple& tuple) const noexcept {
    return static_cast<std::size_t>(hash_tuple(tuple));
  }
};

}  // namespace dart
