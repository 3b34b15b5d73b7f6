#include "common/hashing.hpp"

#include <array>
#include <cstddef>

namespace dart {
namespace {

// Slicing-by-8: table k maps a byte to its CRC contribution k bytes ahead
// of the register, so one step folds eight input bytes with eight lookups.
// Table 0 is the classic bytewise table.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) ? 0xEDB88320U : 0U);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

constexpr std::uint32_t crc_step(std::uint32_t crc,
                                 std::uint8_t byte) noexcept {
  return (crc >> 8) ^ kCrcTables[0][(crc ^ byte) & 0xFFU];
}

/// Little-endian 32-bit load; compilers fold it to one load on LE hosts.
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  for (; left >= 8; left -= 8, p += 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; left > 0; --left, ++p) crc = crc_step(crc, *p);
  return crc ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_u32(std::uint32_t word, std::uint32_t seed) noexcept {
  std::uint32_t crc = seed ^ 0xFFFFFFFFU;
  for (int shift = 0; shift < 32; shift += 8) {
    crc = crc_step(crc, static_cast<std::uint8_t>(word >> shift));
  }
  return crc ^ 0xFFFFFFFFU;
}

}  // namespace dart
