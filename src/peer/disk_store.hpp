#pragma once

/// \file disk_store.hpp
/// Persistent backing for a peer daemon's cache: an append-only record log
/// with CRC-guarded records, replayed into a `core::SlotIndex`-backed map
/// on open. A peer that is killed and restarted recovers every fully
/// written record and serves its held versions again — freshness state
/// survives the process, which is what makes kill-and-restart demos (and
/// real deployments) honest.
///
/// Log format, per record (all integers little-endian):
///
///     length u32   byte count of the body that follows the crc
///     crc    u32   CRC-32 of the body
///     body         kind u8 | item u32 | version u64 | payloadLen u32 | payload
///
/// Writes are append-only; a crash can only truncate the tail. Replay
/// stops at the first record whose length or CRC does not check out and
/// truncates the file there — a torn final record is expected after a
/// kill, everything before it is intact. Updates and removes are new
/// records (last one wins), so the log accumulates dead bytes; when the
/// file exceeds the compaction threshold and live data is under half of
/// it, the store rewrites only the live records to a temp file and
/// renames it into place (atomic on POSIX).
///
/// `PeerStore` stacks the simulation's byte-bounded LRU `cache::CacheStore`
/// over a DiskStore the way fs123 stacks its in-memory cache over a disk
/// backend: the memory tier gives O(1) hot lookups and enforces the cache
/// budget, the disk tier gives durability and serves misses that fell out
/// of the memory tier.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_store.hpp"
#include "core/slot_index.hpp"
#include "data/item.hpp"

namespace dtncache::peer {

class DiskStore {
 public:
  struct Config {
    std::string path;  ///< log file; created if absent
    /// Compaction trigger: log file above this size *and* live payload
    /// under half of it.
    std::size_t compactThresholdBytes = 4 * 1024 * 1024;
  };

  struct StoredItem {
    data::ItemId item = 0;
    data::Version version = 0;
    std::vector<std::uint8_t> payload;
  };

  DiskStore() = default;
  ~DiskStore();
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  /// Open (creating if needed) and replay the log. Returns false if the
  /// file cannot be opened; a corrupt tail is repaired, not an error.
  bool open(Config config);
  void close();
  bool isOpen() const { return fd_ >= 0; }

  /// Record `version` of `item`. Returns false (and writes nothing) when
  /// the store already holds the same or a newer version.
  bool put(data::ItemId item, data::Version version,
           const std::vector<std::uint8_t>& payload);

  /// Latest stored copy of `item`, or nullptr.
  const StoredItem* get(data::ItemId item) const;

  /// Append a removal record and drop the in-memory entry.
  bool remove(data::ItemId item);

  /// fsync the log (called by the daemon on its maintenance timer rather
  /// than per-record — a lost tail is a cache miss, not data loss).
  void sync();

  /// Live item count (dead slots awaiting reuse are not items).
  std::size_t size() const { return items_.size() - freeSlots_.size(); }
  std::size_t logBytes() const { return logBytes_; }
  std::uint64_t compactions() const { return compactions_; }
  /// Records dropped during replay because of a torn/corrupt tail.
  std::uint64_t truncatedOnReplay() const { return truncatedOnReplay_; }

  /// Visit every stored item (unspecified order).
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t i = 0; i < items_.size(); ++i)
      if (live_[i]) fn(items_[i]);
  }

 private:
  bool appendRecord(std::uint8_t kind, data::ItemId item, data::Version version,
                    const std::vector<std::uint8_t>& payload);
  void applyPut(data::ItemId item, data::Version version,
                std::vector<std::uint8_t> payload);
  void applyRemove(data::ItemId item);
  bool replay();
  void maybeCompact();

  Config config_;
  int fd_ = -1;
  core::SlotIndex index_;
  std::vector<StoredItem> items_;
  std::vector<bool> live_;
  std::vector<std::uint32_t> freeSlots_;
  std::size_t logBytes_ = 0;
  std::size_t liveBytes_ = 0;  ///< payload bytes of live records
  std::uint64_t compactions_ = 0;
  std::uint64_t truncatedOnReplay_ = 0;
};

/// Memory-over-disk two-tier store for the peer daemon. All writes go to
/// both tiers; reads hit the LRU tier first and repopulate it from disk on
/// a miss. The disk tier keeps everything (subject to its own compaction),
/// the memory tier keeps the hot set within the configured byte budget.
class PeerStore {
 public:
  PeerStore(std::size_t memoryCapacityBytes, DiskStore::Config diskConfig)
      : memory_(memoryCapacityBytes) {
    diskOk_ = disk_.open(std::move(diskConfig));
  }

  bool diskOk() const { return diskOk_; }
  DiskStore& disk() { return disk_; }
  const DiskStore& disk() const { return disk_; }
  cache::CacheStore& memory() { return memory_; }
  const cache::CacheStore& memory() const { return memory_; }

  /// Install `version` of `item`. Returns true when this was news (either
  /// tier advanced its version).
  bool install(data::ItemId item, data::Version version,
               const std::vector<std::uint8_t>& payload, double now) {
    const bool diskNews = diskOk_ && disk_.put(item, version, payload);
    const auto r = memory_.insert(item, version,
                                  static_cast<std::uint32_t>(payload.size()), now);
    const bool memNews = r.kind == cache::InsertResult::Kind::kInserted ||
                         r.kind == cache::InsertResult::Kind::kUpgraded;
    return diskNews || memNews;
  }

  /// Version currently held, consulting memory first, then disk.
  std::optional<data::Version> heldVersion(data::ItemId item) const {
    if (const cache::CacheEntry* e = memory_.find(item)) return e->version;
    if (diskOk_)
      if (const DiskStore::StoredItem* s = disk_.get(item)) return s->version;
    return std::nullopt;
  }

  /// Fetch the payload (memory tier is metadata-only, so bytes always come
  /// from disk); promotes the entry back into the memory tier.
  const DiskStore::StoredItem* fetch(data::ItemId item, double now) {
    if (!diskOk_) return nullptr;
    const DiskStore::StoredItem* s = disk_.get(item);
    if (s == nullptr) return nullptr;
    memory_.insert(item, s->version, static_cast<std::uint32_t>(s->payload.size()), now);
    memory_.recordAccess(item, now);
    return s;
  }

 private:
  cache::CacheStore memory_;
  DiskStore disk_;
  bool diskOk_ = false;
};

}  // namespace dtncache::peer
