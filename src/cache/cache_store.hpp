#pragma once

/// \file cache_store.hpp
/// The data-item copies a set of nodes cache: one row per node, one entry
/// per (row, item).
///
/// Each row is byte-bounded; when an insert does not fit, the row's
/// least-recently-accessed entries are evicted (classic LRU — the paper's
/// focus is freshness, not replacement, so the substrate uses the standard
/// policy). Upgrading an entry to a newer version of the same item never
/// changes occupancy or recency.
///
/// Storage is one item-indexed table: item ids are dense in
/// [0, itemCount), so entry (row, item) sits at row·itemCount + item and
/// every lookup is an indexed load. The table is split in two parallel
/// parts. The hot part is HeldCopy {version, expiresAt}, which the contact
/// path reads for every item at every contact; the cold part holds the
/// size, the arrival time and the LRU links. Each row's LRU order is an
/// intrusive doubly-linked list threaded through the cold part by item id,
/// so eviction pops the list head instead of scanning for the oldest
/// access.

#include <limits>
#include <optional>
#include <vector>

#include "data/item.hpp"
#include "sim/assert.hpp"
#include "sim/time.hpp"
#include "trace/contact.hpp"

namespace dtncache::cache {

/// Expiry sentinel for entries whose validity is not time-bounded.
inline constexpr sim::SimTime kNeverExpires = std::numeric_limits<sim::SimTime>::infinity();
/// Expiry of an entry the row does not hold: no instant is before it.
inline constexpr sim::SimTime kNotHeld = -std::numeric_limits<sim::SimTime>::infinity();

struct CacheEntry {
  data::ItemId item = 0;
  data::Version version = 0;
  std::uint32_t sizeBytes = 0;
  sim::SimTime receivedAt = 0.0;   ///< when this version arrived here
  sim::SimTime expiresAt = kNeverExpires;  ///< when this version stops being valid
};

/// Hot part of an entry: the cached version and the instant it stops being
/// valid. expiresAt is kNotHeld while the row holds nothing of the item, so
/// `t < expiresAt` alone says whether a valid copy is held at `t`.
struct HeldCopy {
  data::Version version = 0;
  sim::SimTime expiresAt = kNotHeld;
};

/// Outcome of an insert/upgrade attempt, with any LRU victims so the caller
/// can report evictions to the metrics layer.
struct InsertResult {
  enum class Kind {
    kInserted,       ///< item was not present; copy added
    kUpgraded,       ///< present with an older version; version replaced
    kAlreadyCurrent, ///< present with the same or newer version; no change
    kRejected,       ///< larger than the whole row
  };
  Kind kind = Kind::kRejected;
  data::Version previousVersion = 0;  ///< kUpgraded only
  std::vector<CacheEntry> evicted;
};

class CacheStore {
 public:
  /// `rows` caches over items [0, itemCount), each bounded by
  /// `capacityBytes`.
  CacheStore(std::size_t rows, std::size_t itemCount, std::size_t capacityBytes);

  /// Insert a copy into `row` or upgrade an existing one to a newer
  /// version. `expiresAt` is the instant the copy stops being valid (the
  /// version's creation time plus the item lifetime); callers that do not
  /// track validity pass nothing and the copy counts as live forever.
  InsertResult insert(NodeId row, data::ItemId item, data::Version version,
                      std::uint32_t sizeBytes, sim::SimTime now,
                      sim::SimTime expiresAt = kNeverExpires);

  /// Hot part of (row, item): one indexed load, no bounds check.
  const HeldCopy& held(NodeId row, data::ItemId item) const { return hot_[at(row, item)]; }

  /// Entry for (row, item), or nullopt.
  std::optional<CacheEntry> find(NodeId row, data::ItemId item) const;

  /// Record a cache hit: (row, item) becomes the row's most recently used.
  void recordAccess(NodeId row, data::ItemId item);

  /// Remove an entry; returns it if present.
  std::optional<CacheEntry> remove(NodeId row, data::ItemId item);

  std::size_t usedBytes(NodeId row) const { return rows_[row].usedBytes; }
  std::size_t size(NodeId row) const { return rows_[row].count; }

  /// True iff at least one copy in `row` is still valid at `now` — i.e. a
  /// full scan would find an entry with expiresAt > now. O(1) via the row's
  /// exact latest-expiry watermark, no mutation: safe from sharded-kernel
  /// worker threads and the coordinator's activity fence.
  bool hasUnexpired(NodeId row, sim::SimTime now) const {
    return now < rows_[row].latestExpiry;
  }

  /// The row's entries in item-id order, for metric scans.
  std::vector<CacheEntry> entries(NodeId row) const;

  /// Visit every entry of `row` in item-id order without allocating.
  template <typename Fn>
  void forEachEntry(NodeId row, Fn&& fn) const {
    for (data::ItemId item = 0; item < itemCount_; ++item)
      if (held(row, item).expiresAt != kNotHeld) fn(entryAt(row, item));
  }

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  /// Cold part of an entry. The links are item ids within the same row.
  struct Cold {
    sim::SimTime receivedAt = 0.0;
    std::uint32_t sizeBytes = 0;
    std::uint32_t lruPrev = kNil;  ///< toward least recently used
    std::uint32_t lruNext = kNil;  ///< toward most recently used
  };

  struct Row {
    std::size_t usedBytes = 0;
    std::size_t count = 0;
    std::uint32_t lruHead = kNil;  ///< least recently used
    std::uint32_t lruTail = kNil;  ///< most recently used
    /// Exact max of expiresAt over the row's entries (kNotHeld when empty);
    /// kept exact by rescanning whenever the entry holding the max is
    /// removed or lowered.
    sim::SimTime latestExpiry = kNotHeld;
    bool expiryDirty = false;
  };

  std::size_t at(NodeId row, data::ItemId item) const {
    return static_cast<std::size_t>(row) * itemCount_ + item;
  }
  CacheEntry entryAt(NodeId row, data::ItemId item) const;
  void checkBounds(NodeId row, data::ItemId item) const {
    DTNCACHE_CHECK_MSG(row < rows_.size() && item < itemCount_,
                       "cache entry (" << row << ", " << item << ") out of range");
  }
  void linkMru(NodeId row, data::ItemId item);
  void unlink(NodeId row, data::ItemId item);
  /// Drop (row, item): occupancy, LRU list, watermark, hot part.
  void release(NodeId row, data::ItemId item);
  void evictLru(NodeId row, std::vector<CacheEntry>& out);
  void settleExpiryBound(NodeId row);

  std::size_t itemCount_;
  std::size_t capacityBytes_;
  std::vector<Row> rows_;
  std::vector<HeldCopy> hot_;
  std::vector<Cold> cold_;
};

}  // namespace dtncache::cache
