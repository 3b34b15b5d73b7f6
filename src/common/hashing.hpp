// Hash primitives for the data-plane tables.
//
// The Tofino provides CRC-based hash units; each pipeline stage computing a
// table index uses an independently seeded hash. We model that with a
// `HashFamily`: member i is a distinct 64-bit mixer, so a k-stage Packet
// Tracker probes k independent locations for the same record key.
#pragma once

#include <cstdint>
#include <span>

namespace dart {

/// SplitMix64 finalizer: a fast, high-quality 64-bit bijective mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// CRC-32 (IEEE 802.3 polynomial, reflected). The Tofino hash units are CRC
/// based; we provide CRC-32 both for fidelity and as an independent check on
/// signature collision behaviour in tests.
std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Incremental CRC-32 over a 32-bit word (little-endian byte order).
std::uint32_t crc32_u32(std::uint32_t word, std::uint32_t seed = 0) noexcept;

/// A family of independent hash functions indexed by stage number.
class HashFamily {
 public:
  explicit constexpr HashFamily(std::uint64_t seed) : seed_(seed) {}

  /// The salt that makes member `stage` independent of its siblings.
  static constexpr std::uint64_t salt(std::uint64_t seed,
                                      std::uint32_t stage) noexcept {
    return mix64(seed + 0x632be59bd9b4e019ULL * (stage + 1));
  }

  /// Hash `key` with the `stage`-th member of the family.
  constexpr std::uint64_t operator()(std::uint64_t key,
                                     std::uint32_t stage) const noexcept {
    return mix64(key ^ salt(seed_, stage));
  }

 private:
  std::uint64_t seed_;
};

/// The slot index one family member assigns a key in a table of `slots`
/// entries: exactly `HashFamily(seed)(key, member) % slots`, with the
/// member's salt computed once and the reduction a mask whenever `slots` is
/// a power of two (every deployed geometry, and `slots == 1`). Tables index
/// through this on every probe, and checkpoint images store the indices it
/// yields, so the mapping itself must never change. `slots` must be > 0.
class SlotHash {
 public:
  constexpr SlotHash(std::uint64_t seed, std::uint32_t member,
                     std::uint64_t slots)
      : salt_(HashFamily::salt(seed, member)),
        slots_(slots),
        mask_(slots - 1),
        pow2_((slots & (slots - 1)) == 0) {}

  constexpr std::uint64_t operator()(std::uint64_t key) const noexcept {
    const std::uint64_t hash = mix64(key ^ salt_);
    return pow2_ ? hash & mask_ : hash % slots_;
  }

 private:
  std::uint64_t salt_;
  std::uint64_t slots_;
  std::uint64_t mask_;
  bool pow2_;
};

}  // namespace dart
