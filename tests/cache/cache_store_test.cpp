#include "cache/cache_store.hpp"

#include <gtest/gtest.h>

namespace dtncache::cache {
namespace {

/// The single-row store these tests drive: ids below kItems.
constexpr NodeId kRow = 0;
constexpr std::size_t kItems = 100;

TEST(CacheStore, InsertAndFind) {
  CacheStore s(1, kItems, 1024);
  const auto r = s.insert(kRow, /*item=*/1, /*version=*/0, /*size=*/100, /*now=*/0.0);
  EXPECT_EQ(r.kind, InsertResult::Kind::kInserted);
  const auto e = s.find(kRow, 1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->version, 0u);
  EXPECT_EQ(s.usedBytes(kRow), 100u);
}

TEST(CacheStore, UpgradeReplacesVersionInPlace) {
  CacheStore s(1, kItems, 1024);
  s.insert(kRow, 1, 0, 100, 0.0);
  const auto r = s.insert(kRow, 1, 3, 100, 5.0);
  EXPECT_EQ(r.kind, InsertResult::Kind::kUpgraded);
  EXPECT_EQ(r.previousVersion, 0u);
  EXPECT_EQ(s.find(kRow, 1)->version, 3u);
  EXPECT_DOUBLE_EQ(s.find(kRow, 1)->receivedAt, 5.0);
  EXPECT_EQ(s.usedBytes(kRow), 100u);
  EXPECT_EQ(s.size(kRow), 1u);
}

TEST(CacheStore, SameOrOlderVersionIsNoop) {
  CacheStore s(1, kItems, 1024);
  s.insert(kRow, 1, 5, 100, 0.0);
  EXPECT_EQ(s.insert(kRow, 1, 5, 100, 1.0).kind, InsertResult::Kind::kAlreadyCurrent);
  EXPECT_EQ(s.insert(kRow, 1, 2, 100, 1.0).kind, InsertResult::Kind::kAlreadyCurrent);
  EXPECT_EQ(s.find(kRow, 1)->version, 5u);
}

TEST(CacheStore, RejectsLargerThanCapacity) {
  CacheStore s(1, kItems, 100);
  EXPECT_EQ(s.insert(kRow, 1, 0, 200, 0.0).kind, InsertResult::Kind::kRejected);
  EXPECT_EQ(s.size(kRow), 0u);
}

TEST(CacheStore, LruEvictionOnOverflow) {
  CacheStore s(1, kItems, 250);
  s.insert(kRow, 1, 0, 100, 1.0);
  s.insert(kRow, 2, 0, 100, 2.0);
  s.recordAccess(kRow, 1);  // item 2 is now least recently used
  const auto r = s.insert(kRow, 3, 0, 100, 4.0);
  EXPECT_EQ(r.kind, InsertResult::Kind::kInserted);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].item, 2u);
  EXPECT_FALSE(s.find(kRow, 2).has_value());
  EXPECT_TRUE(s.find(kRow, 1).has_value());
}

TEST(CacheStore, EvictionMayRemoveSeveral) {
  CacheStore s(1, kItems, 300);
  s.insert(kRow, 1, 0, 100, 1.0);
  s.insert(kRow, 2, 0, 100, 2.0);
  s.insert(kRow, 3, 0, 100, 3.0);
  const auto r = s.insert(kRow, 4, 0, 250, 4.0);
  EXPECT_EQ(r.kind, InsertResult::Kind::kInserted);
  // 250 + any 100-byte survivor exceeds 300, so all three must go.
  EXPECT_EQ(r.evicted.size(), 3u);
  EXPECT_EQ(s.usedBytes(kRow), 250u);
}

TEST(CacheStore, RemoveReturnsEntry) {
  CacheStore s(1, kItems, 1024);
  s.insert(kRow, 7, 2, 100, 0.0);
  const auto e = s.remove(kRow, 7);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->version, 2u);
  EXPECT_EQ(s.usedBytes(kRow), 0u);
  EXPECT_FALSE(s.remove(kRow, 7).has_value());
}

TEST(CacheStore, AccessBumpsCountAndRecency) {
  CacheStore s(1, kItems, 30);
  s.insert(kRow, 1, 0, 10, 0.0);
  s.insert(kRow, 2, 0, 10, 1.0);
  s.insert(kRow, 3, 0, 10, 2.0);
  s.recordAccess(kRow, 1);
  s.recordAccess(kRow, 1);  // already most recent: stays there
  const auto r = s.insert(kRow, 4, 0, 10, 7.0);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].item, 2u);  // the accessed item 1 outlived it
  EXPECT_TRUE(s.find(kRow, 1).has_value());
}

TEST(CacheStore, AccessOnMissingItemIsNoop) {
  CacheStore s(1, kItems, 1024);
  s.recordAccess(kRow, 99);  // must not crash
  EXPECT_EQ(s.size(kRow), 0u);
}

TEST(CacheStore, EntriesSortedByItem) {
  CacheStore s(1, kItems, 1024);
  s.insert(kRow, 5, 0, 10, 0.0);
  s.insert(kRow, 1, 0, 10, 0.0);
  s.insert(kRow, 3, 0, 10, 0.0);
  const auto es = s.entries(kRow);
  ASSERT_EQ(es.size(), 3u);
  EXPECT_EQ(es[0].item, 1u);
  EXPECT_EQ(es[1].item, 3u);
  EXPECT_EQ(es[2].item, 5u);
}

TEST(CacheStore, ExpiryWatermarkBasics) {
  CacheStore s(1, kItems, 1024);
  EXPECT_FALSE(s.hasUnexpired(kRow, 0.0));  // empty store has nothing valid
  s.insert(kRow, 1, 0, 100, 0.0, /*expiresAt=*/50.0);
  EXPECT_TRUE(s.hasUnexpired(kRow, 49.9));
  EXPECT_FALSE(s.hasUnexpired(kRow, 50.0));  // expired AT the boundary instant
  // Upgrading to a fresher version extends validity...
  s.insert(kRow, 1, 1, 100, 10.0, /*expiresAt=*/80.0);
  EXPECT_TRUE(s.hasUnexpired(kRow, 50.0));
  EXPECT_FALSE(s.hasUnexpired(kRow, 80.0));
  // ...and removal retracts the watermark.
  s.remove(kRow, 1);
  EXPECT_FALSE(s.hasUnexpired(kRow, 0.0));
}

TEST(CacheStore, HasUnexpiredMatchesFullScanUnderRandomChurn) {
  // Property check for the expiry watermark: hasUnexpired(now) must equal a
  // full scan for an entry with expiresAt > now, under arbitrary mixes of
  // insert (forever and time-bounded validity), version upgrades that can
  // RAISE or LOWER the bound, targeted removal, recency touches, and LRU
  // eviction under capacity pressure.
  std::uint64_t rng = 0x853c49e6748fea9bull;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  for (int trial = 0; trial < 20; ++trial) {
    CacheStore s(1, kItems, 600);  // ~6 entries of 100B: inserts evict constantly
    sim::SimTime now = 0.0;
    for (int step = 0; step < 400; ++step) {
      now += static_cast<sim::SimTime>(next() % 100) / 10.0;
      const data::ItemId item = next() % 12;
      switch (next() % 5) {
        case 0:
        case 1:
        case 2: {  // insert/upgrade with a random validity bound
          const data::Version v = next() % 6;
          const std::uint32_t kind = next() % 6;
          sim::SimTime expiresAt = kNeverExpires;
          if (kind != 0) {
            expiresAt = now + static_cast<sim::SimTime>(next() % 400) / 10.0 - 10.0;
            if (expiresAt < 0.0) expiresAt = 0.0;
          }
          s.insert(kRow, item, v, 100, now, expiresAt);
          break;
        }
        case 3:
          s.remove(kRow, item);
          break;
        case 4:
          s.recordAccess(kRow, item);
          break;
      }
      for (const sim::SimTime at : {now, now + static_cast<sim::SimTime>(next() % 300) / 10.0}) {
        bool scanValid = false;
        s.forEachEntry(kRow, [&](const CacheEntry& e) {
          if (at < e.expiresAt) scanValid = true;
        });
        ASSERT_EQ(s.hasUnexpired(kRow, at), scanValid)
            << "trial " << trial << " step " << step << " at " << at
            << " size " << s.size(kRow);
      }
    }
  }
}

TEST(CacheStore, RowsAreIndependent) {
  // Three rows of one table: each has its own budget, LRU order and expiry
  // watermark, and the same item id in two rows is two entries.
  CacheStore s(3, kItems, 200);
  s.insert(0, 5, 1, 100, 0.0, /*expiresAt=*/40.0);
  s.insert(2, 5, 3, 100, 0.0, /*expiresAt=*/90.0);
  s.insert(2, 6, 0, 100, 1.0);
  EXPECT_EQ(s.find(0, 5)->version, 1u);
  EXPECT_EQ(s.find(2, 5)->version, 3u);
  EXPECT_FALSE(s.find(1, 5).has_value());
  EXPECT_EQ(s.held(1, 5).expiresAt, kNotHeld);
  const auto r = s.insert(2, 7, 0, 100, 2.0);  // evicts row 2's LRU only
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].item, 5u);
  EXPECT_EQ(s.held(2, 5).expiresAt, kNotHeld);
  EXPECT_EQ(s.size(0), 1u);
  EXPECT_EQ(s.size(2), 2u);
  EXPECT_EQ(s.usedBytes(2), 200u);
  EXPECT_TRUE(s.hasUnexpired(0, 39.0));
  EXPECT_FALSE(s.hasUnexpired(0, 40.0));
  EXPECT_FALSE(s.hasUnexpired(1, 0.0));
  EXPECT_TRUE(s.hasUnexpired(2, 1e9));  // items 6 and 7 never expire
}

}  // namespace
}  // namespace dtncache::cache
