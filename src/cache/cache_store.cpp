#include "cache/cache_store.hpp"

namespace dtncache::cache {

CacheStore::CacheStore(std::size_t rows, std::size_t itemCount, std::size_t capacityBytes)
    : itemCount_(itemCount),
      capacityBytes_(capacityBytes),
      rows_(rows),
      hot_(rows * itemCount),
      cold_(rows * itemCount) {
  DTNCACHE_CHECK_MSG(itemCount < kNil, "item ids must fit the LRU links");
}

CacheEntry CacheStore::entryAt(NodeId row, data::ItemId item) const {
  const HeldCopy& h = hot_[at(row, item)];
  const Cold& c = cold_[at(row, item)];
  return CacheEntry{item, h.version, c.sizeBytes, c.receivedAt, h.expiresAt};
}

void CacheStore::linkMru(NodeId row, data::ItemId item) {
  Row& r = rows_[row];
  Cold& c = cold_[at(row, item)];
  c.lruPrev = r.lruTail;
  c.lruNext = kNil;
  if (r.lruTail != kNil) cold_[at(row, r.lruTail)].lruNext = item;
  r.lruTail = item;
  if (r.lruHead == kNil) r.lruHead = item;
}

void CacheStore::unlink(NodeId row, data::ItemId item) {
  Row& r = rows_[row];
  Cold& c = cold_[at(row, item)];
  if (c.lruPrev != kNil) cold_[at(row, c.lruPrev)].lruNext = c.lruNext;
  else r.lruHead = c.lruNext;
  if (c.lruNext != kNil) cold_[at(row, c.lruNext)].lruPrev = c.lruPrev;
  else r.lruTail = c.lruPrev;
  c.lruPrev = c.lruNext = kNil;
}

void CacheStore::release(NodeId row, data::ItemId item) {
  Row& r = rows_[row];
  HeldCopy& h = hot_[at(row, item)];
  r.usedBytes -= cold_[at(row, item)].sizeBytes;
  --r.count;
  unlink(row, item);
  // Only losing the entry that held the max can lower the bound; ties
  // rescan too (the max may survive in a twin).
  if (h.expiresAt == r.latestExpiry) r.expiryDirty = true;
  h = HeldCopy{};
}

InsertResult CacheStore::insert(NodeId row, data::ItemId item, data::Version version,
                                std::uint32_t sizeBytes, sim::SimTime now,
                                sim::SimTime expiresAt) {
  checkBounds(row, item);
  DTNCACHE_CHECK_MSG(expiresAt > kNotHeld, "a copy must expire after -inf");
  InsertResult result;
  if (sizeBytes > capacityBytes_) {
    result.kind = InsertResult::Kind::kRejected;
    return result;
  }

  Row& r = rows_[row];
  HeldCopy& h = hot_[at(row, item)];
  Cold& c = cold_[at(row, item)];
  if (h.expiresAt != kNotHeld) {
    if (h.version >= version) {
      result.kind = InsertResult::Kind::kAlreadyCurrent;
      return result;
    }
    result.kind = InsertResult::Kind::kUpgraded;
    result.previousVersion = h.version;
    // Same item: occupancy may change if the item size changed between
    // versions (it does not in our catalogs, but stay correct). Recency is
    // untouched — an upgrade is a push, not a local access.
    r.usedBytes -= c.sizeBytes;
    r.usedBytes += sizeBytes;
    h.version = version;
    c.sizeBytes = sizeBytes;
    c.receivedAt = now;
    const sim::SimTime oldExpiry = h.expiresAt;
    h.expiresAt = expiresAt;
    if (expiresAt > r.latestExpiry) r.latestExpiry = expiresAt;
    else if (expiresAt < oldExpiry && oldExpiry == r.latestExpiry) r.expiryDirty = true;
    while (r.usedBytes > capacityBytes_) evictLru(row, result.evicted);
    settleExpiryBound(row);
    return result;
  }

  while (r.usedBytes + sizeBytes > capacityBytes_) evictLru(row, result.evicted);
  h = HeldCopy{version, expiresAt};
  c.sizeBytes = sizeBytes;
  c.receivedAt = now;
  linkMru(row, item);
  r.usedBytes += sizeBytes;
  ++r.count;
  if (expiresAt > r.latestExpiry) r.latestExpiry = expiresAt;
  result.kind = InsertResult::Kind::kInserted;
  settleExpiryBound(row);
  return result;
}

std::optional<CacheEntry> CacheStore::find(NodeId row, data::ItemId item) const {
  checkBounds(row, item);
  if (held(row, item).expiresAt == kNotHeld) return std::nullopt;
  return entryAt(row, item);
}

void CacheStore::recordAccess(NodeId row, data::ItemId item) {
  checkBounds(row, item);
  if (held(row, item).expiresAt == kNotHeld || rows_[row].lruTail == item) return;
  unlink(row, item);
  linkMru(row, item);
}

std::optional<CacheEntry> CacheStore::remove(NodeId row, data::ItemId item) {
  const std::optional<CacheEntry> e = find(row, item);
  if (!e) return std::nullopt;
  release(row, item);
  settleExpiryBound(row);
  return e;
}

std::vector<CacheEntry> CacheStore::entries(NodeId row) const {
  std::vector<CacheEntry> out;
  out.reserve(size(row));
  forEachEntry(row, [&](const CacheEntry& e) { out.push_back(e); });
  return out;
}

void CacheStore::evictLru(NodeId row, std::vector<CacheEntry>& out) {
  const std::uint32_t victim = rows_[row].lruHead;
  DTNCACHE_CHECK(victim != kNil);
  out.push_back(entryAt(row, victim));
  release(row, victim);
}

void CacheStore::settleExpiryBound(NodeId row) {
  Row& r = rows_[row];
  if (!r.expiryDirty) return;
  r.expiryDirty = false;
  r.latestExpiry = kNotHeld;
  // Entries the row does not hold read kNotHeld, so the max needs no filter.
  for (data::ItemId item = 0; item < itemCount_; ++item)
    if (hot_[at(row, item)].expiresAt > r.latestExpiry)
      r.latestExpiry = hot_[at(row, item)].expiresAt;
}

}  // namespace dtncache::cache
