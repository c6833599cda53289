#pragma once

/// \file cache_store.hpp
/// Per-node cache of data-item copies.
///
/// Byte-bounded; when an insert does not fit, least-recently-accessed
/// entries are evicted (classic LRU — the paper's focus is freshness, not
/// replacement, so the substrate uses the standard policy). Upgrading an
/// entry to a newer version of the same item never changes occupancy or
/// recency.
///
/// Storage is flat: entries live in a dense slot vector (freed slots are
/// recycled through a free list), an open-addressing index maps item id to
/// slot, and LRU order is an intrusive doubly-linked list threaded through
/// the slots. find/insert/recordAccess are O(1) with no per-entry heap
/// nodes, and eviction pops the list head instead of scanning for the
/// minimum timestamp. Contact-path reads go to CooperativeCache's flat
/// held-copy table instead; the store serves installs, queries and scans.

#include <limits>
#include <optional>
#include <vector>

#include "core/slot_index.hpp"
#include "data/item.hpp"
#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace dtncache::cache {

/// Expiry sentinel for entries whose validity is not time-bounded.
inline constexpr sim::SimTime kNeverExpires = std::numeric_limits<sim::SimTime>::infinity();

struct CacheEntry {
  data::ItemId item = 0;
  data::Version version = 0;
  std::uint32_t sizeBytes = 0;
  sim::SimTime receivedAt = 0.0;   ///< when this version arrived here
  sim::SimTime lastAccess = 0.0;   ///< insert or last recordAccess time
  sim::SimTime expiresAt = kNeverExpires;  ///< when this version stops being valid
  std::size_t accessCount = 0;
};

/// Outcome of an insert/upgrade attempt, with any LRU victims so the caller
/// can report evictions to the metrics layer.
struct InsertResult {
  enum class Kind {
    kInserted,       ///< item was not present; copy added
    kUpgraded,       ///< present with an older version; version replaced
    kAlreadyCurrent, ///< present with the same or newer version; no change
    kRejected,       ///< larger than the whole cache
  };
  Kind kind = Kind::kRejected;
  data::Version previousVersion = 0;  ///< kUpgraded only
  std::vector<CacheEntry> evicted;
};

class CacheStore {
 public:
  explicit CacheStore(std::size_t capacityBytes = 64 * 1024 * 1024)
      : capacityBytes_(capacityBytes) {}

  /// Insert a copy or upgrade an existing one to a newer version.
  /// `expiresAt` is the instant the copy stops being valid (the version's
  /// creation time plus the item lifetime); callers that do not track
  /// validity pass nothing and the copy counts as live forever.
  InsertResult insert(data::ItemId item, data::Version version, std::uint32_t sizeBytes,
                      sim::SimTime now, sim::SimTime expiresAt = kNeverExpires);

  /// Entry for `item`, or nullptr.
  const CacheEntry* find(data::ItemId item) const {
    const std::uint32_t slot = index_.find(item);
    return slot == core::SlotIndex::kNoSlot ? nullptr : &slots_[slot].entry;
  }

  /// Record a cache hit (updates LRU recency).
  void recordAccess(data::ItemId item, sim::SimTime now);

  /// Remove an entry; returns it if present.
  std::optional<CacheEntry> remove(data::ItemId item);

  std::size_t usedBytes() const { return usedBytes_; }
  std::size_t capacityBytes() const { return capacityBytes_; }
  std::size_t size() const { return index_.size(); }

  /// True iff at least one cached copy is still valid at `now` — i.e. a full
  /// scan would find an entry with expiresAt > now. O(1) via the exact
  /// latest-expiry watermark, no mutation: safe from sharded-kernel worker
  /// threads and the coordinator's activity fence.
  bool hasUnexpired(sim::SimTime now) const { return size() > 0 && now < latestExpiry_; }

  /// Stable iteration (item-id order) for metric scans.
  std::vector<const CacheEntry*> entries() const;

  /// Visit every entry without allocating, in unspecified order. For scans
  /// whose accumulation is order-independent (counting valid copies).
  template <typename Fn>
  void forEachEntry(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.live) fn(s.entry);
  }

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  struct Slot {
    CacheEntry entry;
    std::uint32_t lruPrev = kNil;  ///< toward least recently used
    std::uint32_t lruNext = kNil;  ///< toward most recently used
    bool live = false;
  };

  std::uint32_t allocSlot();
  void linkMru(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void releaseSlot(std::uint32_t slot);
  void evictLru(std::vector<CacheEntry>& out);
  void noteExpiryChanged(sim::SimTime oldExpiry);
  void settleExpiryBound();

  std::size_t capacityBytes_;
  std::size_t usedBytes_ = 0;
  core::SlotIndex index_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint32_t lruHead_ = kNil;  ///< least recently used
  std::uint32_t lruTail_ = kNil;  ///< most recently used
  /// Exact max of expiresAt over live entries (-inf when empty); kept exact
  /// by rescanning whenever the entry holding the max is removed or lowered.
  sim::SimTime latestExpiry_ = -std::numeric_limits<sim::SimTime>::infinity();
  bool expiryDirty_ = false;
};

}  // namespace dtncache::cache
