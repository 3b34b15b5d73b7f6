// Packet Tracker mechanics (paper Section 3.2): stage layout, lazy
// eviction, victim selection, lookup/erase.
#include "core/packet_tracker.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "core/checkpoint.hpp"

namespace dart::core {
namespace {

using CheckpointError = SealedError;
using CheckpointReader = SealedReader;

PacketTracker::Record record(std::uint32_t sig, SeqNum eack, Timestamp ts) {
  PacketTracker::Record r;
  r.flow_sig = sig;
  r.eack = eack;
  r.ts = ts;
  return r;
}

TEST(PacketTracker, StoreAndRetrieve) {
  PacketTracker pt{1 << 8, 1, EvictionPolicy::kEvictYoungest, 7};
  EXPECT_EQ(pt.insert(record(1, 100, 10)).status,
            PacketTracker::InsertStatus::kStored);
  const auto found = pt.lookup_erase(1, 100);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->ts, 10U);
  // Erased: second lookup misses.
  EXPECT_FALSE(pt.lookup_erase(1, 100).has_value());
}

TEST(PacketTracker, LookupMissOnWrongKey) {
  PacketTracker pt{1 << 8, 1, EvictionPolicy::kEvictYoungest, 7};
  pt.insert(record(1, 100, 10));
  EXPECT_FALSE(pt.lookup_erase(1, 101).has_value());
  EXPECT_FALSE(pt.lookup_erase(2, 100).has_value());
}

TEST(PacketTracker, SameKeyInsertRefreshes) {
  PacketTracker pt{1 << 8, 1, EvictionPolicy::kEvictYoungest, 7};
  pt.insert(record(1, 100, 10));
  EXPECT_EQ(pt.insert(record(1, 100, 50)).status,
            PacketTracker::InsertStatus::kStored);
  EXPECT_EQ(pt.occupied(), 1U);
  EXPECT_EQ(pt.lookup_erase(1, 100)->ts, 50U);
}

TEST(PacketTracker, SingleStageCollisionEvictsOccupant) {
  // A 1-slot table: every distinct key collides. Paper: the new entry gets
  // stored, the old entry is handed back for recirculation.
  PacketTracker pt{1, 1, EvictionPolicy::kEvictYoungest, 7};
  ASSERT_EQ(pt.insert(record(1, 100, 10)).status,
            PacketTracker::InsertStatus::kStored);
  const auto result = pt.insert(record(2, 200, 20));
  ASSERT_EQ(result.status, PacketTracker::InsertStatus::kEvicted);
  EXPECT_EQ(result.evicted.flow_sig, 1U);
  EXPECT_EQ(result.evicted.eack, 100U);
  // The new record owns the slot.
  EXPECT_TRUE(pt.lookup_erase(2, 200).has_value());
}

TEST(PacketTracker, EvictYoungestPrefersOlderRecords) {
  // Fill a k=4 table of 4 slots (1 slot per stage): all candidates full.
  PacketTracker pt{4, 4, EvictionPolicy::kEvictYoungest, 7};
  pt.insert(record(1, 1, 100));
  pt.insert(record(2, 2, 50));
  pt.insert(record(3, 3, 300));  // youngest
  pt.insert(record(4, 4, 200));
  const auto result = pt.insert(record(5, 5, 400));
  ASSERT_EQ(result.status, PacketTracker::InsertStatus::kEvicted);
  EXPECT_EQ(result.evicted.ts, 300U) << "the youngest occupant is the victim";
  // The oldest record survives.
  EXPECT_TRUE(pt.lookup_erase(2, 2).has_value());
}

TEST(PacketTracker, EvictOldestPolicyInverts) {
  PacketTracker pt{4, 4, EvictionPolicy::kEvictOldest, 7};
  pt.insert(record(1, 1, 100));
  pt.insert(record(2, 2, 50));
  pt.insert(record(3, 3, 300));
  pt.insert(record(4, 4, 200));
  const auto result = pt.insert(record(5, 5, 400));
  ASSERT_EQ(result.status, PacketTracker::InsertStatus::kEvicted);
  EXPECT_EQ(result.evicted.ts, 50U);
}

TEST(PacketTracker, NeverEvictDropsIncoming) {
  PacketTracker pt{1, 1, EvictionPolicy::kNeverEvict, 7};
  pt.insert(record(1, 100, 10));
  const auto result = pt.insert(record(2, 200, 20));
  EXPECT_EQ(result.status, PacketTracker::InsertStatus::kDroppedPolicy);
  EXPECT_TRUE(pt.lookup_erase(1, 100).has_value());
}

TEST(PacketTracker, VictimKeyRecordsDisplacement) {
  PacketTracker pt{1, 1, EvictionPolicy::kEvictYoungest, 7};
  pt.insert(record(1, 100, 10));
  pt.insert(record(2, 200, 20));  // displaces key(1,100)
  const auto stored = pt.lookup_erase(2, 200);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->victim_key, (std::uint64_t{1} << 32) | 100U);
}

TEST(PacketTracker, MultiStageUsesAlternativeSlots) {
  // With k stages a record has k candidate homes; two colliding records in
  // stage 1 should coexist when stage 2 has room.
  PacketTracker pt{64, 2, EvictionPolicy::kEvictYoungest, 7};
  std::size_t evictions = 0;
  for (std::uint32_t i = 0; i < 48; ++i) {
    const auto result = pt.insert(record(i + 1, 100 + i, i));
    if (result.status == PacketTracker::InsertStatus::kEvicted) ++evictions;
  }
  // Occupancy reaches well past half of one stage's size.
  EXPECT_GT(pt.occupied(), 32U);
  EXPECT_EQ(pt.occupied() + evictions, 48U);
}

TEST(PacketTracker, OccupiedTracksInsertEraseBalance) {
  PacketTracker pt{1 << 10, 4, EvictionPolicy::kEvictYoungest, 7};
  for (std::uint32_t i = 0; i < 100; ++i) {
    pt.insert(record(i, i * 3, i));
  }
  EXPECT_EQ(pt.occupied(), 100U);
  for (std::uint32_t i = 0; i < 100; i += 2) {
    EXPECT_TRUE(pt.lookup_erase(i, i * 3).has_value());
  }
  EXPECT_EQ(pt.occupied(), 50U);
}

TEST(PacketTracker, UnboundedModeNeverEvicts) {
  PacketTracker pt{0, 1, EvictionPolicy::kEvictYoungest, 7};
  for (std::uint32_t i = 0; i < 100000; ++i) {
    EXPECT_EQ(pt.insert(record(i, i, i)).status,
              PacketTracker::InsertStatus::kStored);
  }
  EXPECT_EQ(pt.occupied(), 100000U);
  EXPECT_TRUE(pt.lookup_erase(55555, 55555).has_value());
}

TEST(PacketTracker, CapacitySplitsAcrossStages) {
  PacketTracker pt{1 << 10, 8, EvictionPolicy::kEvictYoungest, 7};
  EXPECT_EQ(pt.capacity(), 1U << 10);
  EXPECT_EQ(pt.stage_count(), 8U);
}

// Checkpoint images store (stage, slot) positions, so the per-stage slot a
// key hashes to must never move. These indices were produced by the
// HashFamily-modulo indexing that predates SlotHash; the non-power-of-two
// geometry pins the modulo branch, the power-of-two one the mask branch.
TEST(PacketTrackerGolden, StageIndicesAreStable) {
  struct Golden {
    std::uint64_t seed;
    std::size_t total;
    std::uint32_t stages;
    std::uint64_t key;
    std::array<std::uint32_t, 4> idx;
  };
  const Golden golden[] = {
      {0xDA27, 1 << 16, 4, 0x0, {7443, 2749, 15727, 14135}},
      {0xDA27, 1 << 16, 4, 0xDEAD'BEEF'CAFE'F00DULL,
       {2994, 7571, 2522, 9528}},
      {0x1234'5678'9ABC'DEF0ULL, 1 << 16, 4, 0x8000'0000'0000'0001ULL,
       {14741, 2432, 2680, 4437}},
      {0xDA27, 3000, 3, 0x1, {928, 927, 111, 0}},
      {0xDA27, 3000, 3, 0xDEAD'BEEF'CAFE'F00DULL, {810, 939, 242, 0}},
      {0x1234'5678'9ABC'DEF0ULL, 3000, 3, 0x0, {349, 438, 863, 0}},
  };
  for (const Golden& g : golden) {
    const PacketTracker pt{g.total, g.stages, EvictionPolicy::kEvictYoungest,
                           g.seed};
    std::array<std::uint32_t, 4> idx{};
    for (std::uint32_t stage = 0; stage < pt.stage_count(); ++stage) {
      idx[stage] = pt.stage_slot(g.key, stage);
    }
    EXPECT_EQ(idx, g.idx) << "seed " << g.seed << " total " << g.total
                          << " key " << g.key;
  }
}

// Probes index the Range Tracker by a record's rt_ref unchecked, so restore
// must refuse an image whose refs are not slots of that tracker.
TEST(PacketTracker, RestoreRejectsRtRefOutsideTheRangeTracker) {
  PacketTracker source{1 << 8, 2, EvictionPolicy::kEvictYoungest, 7};
  PacketTracker::Record r = record(1, 100, 10);
  r.rt_ref = 4096;
  source.insert(r);
  CheckpointWriter writer(SnapshotMeta{});
  writer.begin_section(CheckpointSection::kPacketTracker);
  source.snapshot(writer);
  writer.end_section();
  const CheckpointImage image = writer.seal();
  CheckpointInfo info;
  ASSERT_FALSE(read_info(image, &info));
  ASSERT_EQ(info.sections.size(), 1U);
  const auto restore_with = [&](std::uint64_t rt_slots) {
    CheckpointReader reader(
        std::span<const std::uint8_t>(image.bytes)
            .subspan(static_cast<std::size_t>(info.sections[0].offset),
                     static_cast<std::size_t>(info.sections[0].length)),
        info.sections[0].offset);
    PacketTracker target{1 << 8, 2, EvictionPolicy::kEvictYoungest, 7};
    const CheckpointError err = target.restore(reader, rt_slots);
    EXPECT_EQ(target.occupied(), err ? 0U : 1U);
    return err;
  };
  EXPECT_TRUE(restore_with(4096));
  EXPECT_FALSE(restore_with(4097));
  EXPECT_FALSE(restore_with(0));  // unbounded RT: refs are full hashes
}

// Property: whatever the interleaving of inserts and erases, a key reported
// kStored/kEvicted-in is retrievable until erased or displaced.
class PacketTrackerChurn : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PacketTrackerChurn, NoPhantomEntries) {
  const std::uint32_t stages = GetParam();
  PacketTracker pt{256, stages, EvictionPolicy::kEvictYoungest, 7};
  std::set<std::uint64_t> live;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    PacketTracker::Record r = record(i % 97 + 1, i * 7 + 1, i);
    const auto result = pt.insert(r);
    if (result.status != PacketTracker::InsertStatus::kDroppedPolicy) {
      live.insert(r.key());
    }
    if (result.status == PacketTracker::InsertStatus::kEvicted) {
      live.erase(result.evicted.key());
    }
    if (i % 3 == 0) {
      // Erase an arbitrary live key and verify it was present.
      if (!live.empty()) {
        const std::uint64_t key = *live.begin();
        const auto erased = pt.lookup_erase(
            static_cast<std::uint32_t>(key >> 32),
            static_cast<SeqNum>(key & 0xFFFFFFFFU));
        EXPECT_TRUE(erased.has_value());
        live.erase(key);
      }
    }
  }
  EXPECT_EQ(pt.occupied(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Stages, PacketTrackerChurn,
                         ::testing::Values(1U, 2U, 4U, 8U));

}  // namespace
}  // namespace dart::core
