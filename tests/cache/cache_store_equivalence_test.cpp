/// Randomized equivalence suite: one row of the item-indexed CacheStore
/// against a naive reference built on std::unordered_map plus an explicit recency
/// list. The reference encodes the documented contract directly — insert
/// links most-recently-used, upgrades never touch recency, eviction pops
/// the least-recently-used end, byte accounting follows entry sizes — so
/// any divergence in result kinds, eviction victims (including their
/// order), entry fields, or occupancy is a bug in the table's presence
/// marking or intrusive LRU threading.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "cache/cache_store.hpp"

namespace dtncache::cache {
namespace {

/// The naive model: hash map for storage, vector of ids in recency order
/// (front = least recently used, back = most recently used).
class ReferenceStore {
 public:
  explicit ReferenceStore(std::size_t capacityBytes) : capacity_(capacityBytes) {}

  InsertResult insert(data::ItemId item, data::Version version, std::uint32_t sizeBytes,
                      sim::SimTime now) {
    InsertResult result;
    if (sizeBytes > capacity_) {
      result.kind = InsertResult::Kind::kRejected;
      return result;
    }
    if (auto it = map_.find(item); it != map_.end()) {
      CacheEntry& e = it->second;
      if (e.version >= version) {
        result.kind = InsertResult::Kind::kAlreadyCurrent;
        return result;
      }
      result.kind = InsertResult::Kind::kUpgraded;
      result.previousVersion = e.version;
      used_ -= e.sizeBytes;
      used_ += sizeBytes;
      e.version = version;
      e.sizeBytes = sizeBytes;
      e.receivedAt = now;
      while (used_ > capacity_) evictLru(result.evicted);
      return result;
    }
    while (used_ + sizeBytes > capacity_) evictLru(result.evicted);
    CacheEntry e;
    e.item = item;
    e.version = version;
    e.sizeBytes = sizeBytes;
    e.receivedAt = now;
    map_[item] = e;
    order_.push_back(item);
    used_ += sizeBytes;
    result.kind = InsertResult::Kind::kInserted;
    return result;
  }

  const CacheEntry* find(data::ItemId item) const {
    const auto it = map_.find(item);
    return it == map_.end() ? nullptr : &it->second;
  }

  void recordAccess(data::ItemId item) {
    if (map_.find(item) == map_.end()) return;
    moveToBack(item);
  }

  std::optional<CacheEntry> remove(data::ItemId item) {
    const auto it = map_.find(item);
    if (it == map_.end()) return std::nullopt;
    const CacheEntry e = it->second;
    used_ -= e.sizeBytes;
    map_.erase(it);
    order_.erase(std::find(order_.begin(), order_.end(), item));
    return e;
  }

  std::size_t usedBytes() const { return used_; }
  std::size_t size() const { return map_.size(); }

  std::vector<CacheEntry> entriesByItem() const {
    std::vector<CacheEntry> out;
    for (const auto& [id, e] : map_) out.push_back(e);
    std::sort(out.begin(), out.end(),
              [](const CacheEntry& a, const CacheEntry& b) { return a.item < b.item; });
    return out;
  }

 private:
  void moveToBack(data::ItemId item) {
    if (!order_.empty() && order_.back() == item) return;
    order_.erase(std::find(order_.begin(), order_.end(), item));
    order_.push_back(item);
  }

  void evictLru(std::vector<CacheEntry>& out) {
    ASSERT_FALSE(order_.empty());
    const data::ItemId victim = order_.front();
    order_.erase(order_.begin());
    out.push_back(map_.at(victim));
    used_ -= map_.at(victim).sizeBytes;
    map_.erase(victim);
  }

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::unordered_map<data::ItemId, CacheEntry> map_;
  std::vector<data::ItemId> order_;
};

void expectSameEntry(const CacheEntry& a, const CacheEntry& b) {
  EXPECT_EQ(a.item, b.item);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.sizeBytes, b.sizeBytes);
  EXPECT_DOUBLE_EQ(a.receivedAt, b.receivedAt);
  EXPECT_DOUBLE_EQ(a.expiresAt, b.expiresAt);
}

/// The row of the store under test.
constexpr NodeId kRow = 0;

void expectSameState(const CacheStore& store, const ReferenceStore& ref) {
  ASSERT_EQ(store.size(kRow), ref.size());
  ASSERT_EQ(store.usedBytes(kRow), ref.usedBytes());
  const auto entries = store.entries(kRow);
  const auto refEntries = ref.entriesByItem();
  ASSERT_EQ(entries.size(), refEntries.size());
  for (std::size_t i = 0; i < entries.size(); ++i)
    expectSameEntry(entries[i], refEntries[i]);
}

/// Drive both stores through the same randomized op stream and compare
/// after every operation. Small capacity and item universe force constant
/// upgrades, evictions and re-inserts of evicted items.
void runEquivalence(std::uint64_t seed, std::size_t ops) {
  constexpr std::size_t kCapacity = 1200;
  constexpr std::uint64_t kItems = 16;
  CacheStore store(1, kItems, kCapacity);
  ReferenceStore ref(kCapacity);
  std::mt19937_64 rng(seed);
  sim::SimTime now = 0.0;

  for (std::size_t op = 0; op < ops; ++op) {
    now += static_cast<double>(rng() % 3);  // nondecreasing, with ties
    const auto item = static_cast<data::ItemId>(rng() % kItems);
    switch (rng() % 10) {
      case 0: case 1: case 2: case 3: {  // insert / upgrade
        const auto version = static_cast<data::Version>(rng() % 6);
        // Occasionally oversized to exercise rejection.
        const auto size = static_cast<std::uint32_t>(
            rng() % 100 == 0 ? kCapacity + 1 : 50 + rng() % 350);
        const InsertResult got = store.insert(kRow, item, version, size, now);
        const InsertResult want = ref.insert(item, version, size, now);
        ASSERT_EQ(got.kind, want.kind);
        ASSERT_EQ(got.previousVersion, want.previousVersion);
        ASSERT_EQ(got.evicted.size(), want.evicted.size());
        for (std::size_t i = 0; i < got.evicted.size(); ++i)
          expectSameEntry(got.evicted[i], want.evicted[i]);
        break;
      }
      case 4: case 5: case 6: {  // find
        const auto got = store.find(kRow, item);
        const CacheEntry* want = ref.find(item);
        ASSERT_EQ(got.has_value(), want != nullptr);
        if (got) expectSameEntry(*got, *want);
        break;
      }
      case 7: case 8: {  // recordAccess
        store.recordAccess(kRow, item);
        ref.recordAccess(item);
        break;
      }
      case 9: {  // remove
        const auto got = store.remove(kRow, item);
        const auto want = ref.remove(item);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got.has_value()) expectSameEntry(*got, *want);
        break;
      }
    }
    expectSameState(store, ref);
  }
}

TEST(CacheStoreEquivalence, RandomizedOpsSeed1) { runEquivalence(1, 4000); }
TEST(CacheStoreEquivalence, RandomizedOpsSeed2) { runEquivalence(2, 4000); }
TEST(CacheStoreEquivalence, RandomizedOpsSeed3) { runEquivalence(3, 4000); }

TEST(CacheStoreEquivalence, TinyCapacityChurn) {
  // Capacity of ~2 entries: every insert evicts; re-inserts and head/tail
  // maintenance run continuously.
  CacheStore store(1, 8, 300);
  ReferenceStore ref(300);
  std::mt19937_64 rng(99);
  sim::SimTime now = 0.0;
  for (std::size_t op = 0; op < 2000; ++op) {
    now += 1.0;
    const auto item = static_cast<data::ItemId>(rng() % 8);
    const auto got = store.insert(kRow, item, static_cast<data::Version>(op), 140, now);
    const auto want = ref.insert(item, static_cast<data::Version>(op), 140, now);
    ASSERT_EQ(got.kind, want.kind);
    ASSERT_EQ(got.evicted.size(), want.evicted.size());
    for (std::size_t i = 0; i < got.evicted.size(); ++i)
      expectSameEntry(got.evicted[i], want.evicted[i]);
    expectSameState(store, ref);
  }
}

}  // namespace
}  // namespace dtncache::cache
