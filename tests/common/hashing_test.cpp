#include "common/hashing.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/random.hpp"

namespace dart {
namespace {

TEST(Mix64, IsDeterministicAndNontrivial) {
  EXPECT_EQ(mix64(12345), mix64(12345));
  EXPECT_NE(mix64(12345), mix64(12346));
  EXPECT_NE(mix64(0), 0ULL);
}

TEST(Mix64, AvalanchesSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t base = mix64(0xDEADBEEFCAFEF00DULL);
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t flipped =
        mix64(0xDEADBEEFCAFEF00DULL ^ (1ULL << bit));
    const int popcount = __builtin_popcountll(base ^ flipped);
    EXPECT_GT(popcount, 10) << "weak avalanche at bit " << bit;
    EXPECT_LT(popcount, 54) << "weak avalanche at bit " << bit;
  }
}

TEST(Crc32, MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926.
  const std::array<std::uint8_t, 9> data = {'1', '2', '3', '4', '5',
                                            '6', '7', '8', '9'};
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(data)), 0xCBF43926U);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(crc32({}), 0U);
}

// The bytewise CRC-32 (one table step per byte) that crc32's slicing-by-8
// loop replaced, kept as the oracle: every seal ever written must verify.
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) ? 0xEDB88320U : 0U);
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

TEST(Crc32, SlicedMatchesBytewiseOnRandomBuffers) {
  // Random buffers of 0-4,096 bytes at start offsets 0-7: every tail
  // length of the 8-byte loop and every alignment of its loads.
  Rng rng(0xC3C);
  std::vector<std::uint8_t> buffer(4096 + 8);
  for (int trial = 0; trial < 512; ++trial) {
    for (std::uint8_t& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    const std::size_t offset = static_cast<std::size_t>(trial % 8);
    const std::size_t length = trial < 64
                                   ? static_cast<std::size_t>(trial / 2)
                                   : rng.uniform_int(0, 4096);
    const std::span<const std::uint8_t> data(buffer.data() + offset, length);
    ASSERT_EQ(crc32(data), bytewise_crc32(data))
        << "offset " << offset << ", length " << length;
  }
}

TEST(Crc32U32, ConsistentWithBytewiseCrc) {
  const std::uint32_t word = 0x01020304U;
  const std::array<std::uint8_t, 4> bytes = {0x04, 0x03, 0x02, 0x01};  // LE
  EXPECT_EQ(crc32_u32(word), crc32(std::span<const std::uint8_t>(bytes)));
}

TEST(HashFamily, StagesAreIndependent) {
  const HashFamily family(99);
  const std::uint64_t key = 0xABCDEF12345ULL;
  std::unordered_set<std::uint64_t> values;
  for (std::uint32_t stage = 0; stage < 8; ++stage) {
    values.insert(family(key, stage));
  }
  EXPECT_EQ(values.size(), 8U);  // all distinct for this key
}

TEST(HashFamily, SeedChangesMapping) {
  const HashFamily a(1);
  const HashFamily b(2);
  EXPECT_NE(a(42, 0), b(42, 0));
}

TEST(HashFamily, StageIndexDistributionIsRoughlyUniform) {
  const HashFamily family(7);
  constexpr std::size_t buckets = 64;
  std::array<int, buckets> counts{};
  const int keys = 64000;
  for (int i = 0; i < keys; ++i) {
    ++counts[family(static_cast<std::uint64_t>(i), 1) % buckets];
  }
  const int expected = keys / buckets;
  for (std::size_t i = 0; i < buckets; ++i) {
    EXPECT_GT(counts[i], expected / 2) << "bucket " << i;
    EXPECT_LT(counts[i], expected * 2) << "bucket " << i;
  }
}

// Tables index through SlotHash and checkpoint images store the indices it
// yields, so it must be HashFamily-then-modulo exactly, on both of its
// reduction branches and at the degenerate one-slot table.
TEST(SlotHash, EqualsFamilyModuloSlots) {
  const std::uint64_t seeds[] = {0, 7, 0x1234'5678'9ABC'DEF0ULL};
  const std::uint64_t slot_counts[] = {1,    2,     1024,     1 << 16,
                                       3,    1000,  3000,     65535,
                                       65537, std::uint64_t{1} << 40};
  for (const std::uint64_t seed : seeds) {
    const HashFamily family(seed);
    for (const std::uint32_t member : {0u, 1u, 4u, 0xFFFF'FFFFu}) {
      for (const std::uint64_t slots : slot_counts) {
        const SlotHash slot_hash(seed, member, slots);
        for (std::uint64_t i = 0; i < 200; ++i) {
          const std::uint64_t key = mix64(i) ^ (i << 7);
          ASSERT_EQ(slot_hash(key), family(key, member) % slots)
              << "seed " << seed << " member " << member << " slots "
              << slots << " key " << key;
        }
      }
    }
  }
}

TEST(SlotHash, OneSlotTableAlwaysIndexesZero) {
  const SlotHash slot_hash(99, 0, 1);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(slot_hash(mix64(key)), 0U);
  }
}

}  // namespace
}  // namespace dart
