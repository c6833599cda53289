#include "peer/disk_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace dtncache::peer {
namespace {

std::string tempLog(const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "dtncache_" + name +
                           "_" + std::to_string(::getpid()) + ".log";
  std::remove(path.c_str());
  return path;
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(DiskStore, PutGetAndVersionOrdering) {
  DiskStore store;
  ASSERT_TRUE(store.open({tempLog("putget"), 1u << 20}));

  EXPECT_TRUE(store.put(7, 3, bytes({1, 2, 3})));
  const DiskStore::StoredItem* s = store.get(7);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->version, 3u);
  EXPECT_EQ(s->payload, bytes({1, 2, 3}));

  // Same or older versions write nothing — the log only grows on news.
  const std::size_t logBefore = store.logBytes();
  EXPECT_FALSE(store.put(7, 3, bytes({9})));
  EXPECT_FALSE(store.put(7, 2, bytes({9})));
  EXPECT_EQ(store.logBytes(), logBefore);

  EXPECT_TRUE(store.put(7, 4, bytes({4, 4})));
  EXPECT_EQ(store.get(7)->version, 4u);
  EXPECT_EQ(store.get(7)->payload, bytes({4, 4}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(DiskStore, RemoveDropsItemAndSurvivesReplay) {
  const std::string path = tempLog("remove");
  {
    DiskStore store;
    ASSERT_TRUE(store.open({path, 1u << 20}));
    EXPECT_TRUE(store.put(1, 1, bytes({1})));
    EXPECT_TRUE(store.put(2, 1, bytes({2})));
    EXPECT_TRUE(store.remove(1));
    EXPECT_FALSE(store.remove(1));  // already gone
    EXPECT_EQ(store.get(1), nullptr);
    EXPECT_EQ(store.size(), 1u);
  }
  DiskStore reopened;
  ASSERT_TRUE(reopened.open({path, 1u << 20}));
  EXPECT_EQ(reopened.get(1), nullptr);
  ASSERT_NE(reopened.get(2), nullptr);
  EXPECT_EQ(reopened.get(2)->payload, bytes({2}));
  EXPECT_EQ(reopened.truncatedOnReplay(), 0u);
}

TEST(DiskStore, ReplayRecoversLatestVersions) {
  const std::string path = tempLog("replay");
  {
    DiskStore store;
    ASSERT_TRUE(store.open({path, 1u << 20}));
    for (data::Version v = 1; v <= 5; ++v)
      ASSERT_TRUE(store.put(0, v, bytes({static_cast<int>(v)})));
    ASSERT_TRUE(store.put(1, 9, bytes({42, 43})));
  }
  DiskStore reopened;
  ASSERT_TRUE(reopened.open({path, 1u << 20}));
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.get(0)->version, 5u);
  EXPECT_EQ(reopened.get(0)->payload, bytes({5}));
  EXPECT_EQ(reopened.get(1)->version, 9u);
}

TEST(DiskStore, TornTailIsTruncatedNotFatal) {
  const std::string path = tempLog("torn");
  {
    DiskStore store;
    ASSERT_TRUE(store.open({path, 1u << 20}));
    ASSERT_TRUE(store.put(0, 1, bytes({1, 2, 3, 4})));
    ASSERT_TRUE(store.put(1, 2, bytes({5, 6})));
  }
  std::size_t cleanBytes = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    cleanBytes = static_cast<std::size_t>(in.tellg());
  }
  // Simulate a kill mid-write: a record header promising more body bytes
  // than were ever flushed.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const std::vector<std::uint8_t> torn = bytes({40, 0, 0, 0, 0xAA, 0xBB, 0xCC});
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size()));
  }
  DiskStore reopened;
  ASSERT_TRUE(reopened.open({path, 1u << 20}));
  EXPECT_EQ(reopened.truncatedOnReplay(), 1u);
  EXPECT_EQ(reopened.logBytes(), cleanBytes);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.get(0)->payload, bytes({1, 2, 3, 4}));
  EXPECT_EQ(reopened.get(1)->version, 2u);

  // The tail was ftruncate'd away, so new appends land on a clean boundary
  // and a further reopen sees no corruption at all.
  ASSERT_TRUE(reopened.put(2, 1, bytes({7})));
  reopened.close();
  DiskStore again;
  ASSERT_TRUE(again.open({path, 1u << 20}));
  EXPECT_EQ(again.truncatedOnReplay(), 0u);
  EXPECT_EQ(again.size(), 3u);
}

TEST(DiskStore, CorruptedTailCrcIsTruncated) {
  const std::string path = tempLog("crc");
  {
    DiskStore store;
    ASSERT_TRUE(store.open({path, 1u << 20}));
    ASSERT_TRUE(store.put(0, 1, bytes({1})));
    ASSERT_TRUE(store.put(1, 1, bytes({2})));
  }
  // Flip one byte in the final record's body: its CRC no longer matches,
  // so replay must keep record 0 and drop record 1.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(0x7F));
  }
  DiskStore reopened;
  ASSERT_TRUE(reopened.open({path, 1u << 20}));
  EXPECT_EQ(reopened.truncatedOnReplay(), 1u);
  EXPECT_EQ(reopened.size(), 1u);
  ASSERT_NE(reopened.get(0), nullptr);
  EXPECT_EQ(reopened.get(1), nullptr);
}

TEST(DiskStore, CompactionRewritesOnlyLiveRecords) {
  const std::string path = tempLog("compact");
  DiskStore store;
  ASSERT_TRUE(store.open({path, 2048}));  // tiny threshold to force compaction

  // Rewrite one item over and over: all but the last record are dead bytes.
  std::vector<std::uint8_t> payload(64, 0xEE);
  for (data::Version v = 1; v <= 200; ++v) ASSERT_TRUE(store.put(0, v, payload));
  EXPECT_GE(store.compactions(), 1u);
  EXPECT_LT(store.logBytes(), 2048u + 2 * (payload.size() + 32));
  ASSERT_NE(store.get(0), nullptr);
  EXPECT_EQ(store.get(0)->version, 200u);
  store.close();

  DiskStore reopened;
  ASSERT_TRUE(reopened.open({path, 2048}));
  EXPECT_EQ(reopened.truncatedOnReplay(), 0u);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.get(0)->version, 200u);
  EXPECT_EQ(reopened.get(0)->payload, payload);
}

TEST(DiskStore, AppendsAfterCompactionLandAtEof) {
  // Compaction swaps fd_ for the rewritten file's descriptor; that fd must
  // keep the append-only discipline of open() so every later record lands
  // at EOF and survives replay.
  const std::string path = tempLog("postcompact");
  DiskStore store;
  ASSERT_TRUE(store.open({path, 2048}));
  const std::vector<std::uint8_t> payload(64, 0xAB);
  for (data::Version v = 1; v <= 200; ++v) ASSERT_TRUE(store.put(0, v, payload));
  ASSERT_GE(store.compactions(), 1u);

  for (data::ItemId item = 1; item <= 5; ++item)
    ASSERT_TRUE(store.put(item, 1, bytes({static_cast<int>(item)})));
  store.close();

  DiskStore reopened;
  ASSERT_TRUE(reopened.open({path, 1u << 20}));
  EXPECT_EQ(reopened.truncatedOnReplay(), 0u);
  EXPECT_EQ(reopened.size(), 6u);
  ASSERT_NE(reopened.get(0), nullptr);
  EXPECT_EQ(reopened.get(0)->version, 200u);
  for (data::ItemId item = 1; item <= 5; ++item) {
    ASSERT_NE(reopened.get(item), nullptr);
    EXPECT_EQ(reopened.get(item)->payload, bytes({static_cast<int>(item)}));
  }
}

TEST(DiskStore, OpenFailsOnUnwritablePath) {
  DiskStore store;
  EXPECT_FALSE(store.open({"/nonexistent-dir/x.log", 1u << 20}));
  EXPECT_FALSE(store.isOpen());
}

TEST(PeerStore, InstallFeedsBothTiersAndFetchPromotes) {
  PeerStore store(/*itemCount=*/100, 1u << 20, {tempLog("twotier"), 1u << 20});
  ASSERT_TRUE(store.diskOk());

  EXPECT_TRUE(store.install(3, 1, bytes({1, 2}), 0.0));
  EXPECT_FALSE(store.install(3, 1, bytes({1, 2}), 1.0));  // no news
  EXPECT_TRUE(store.install(3, 2, bytes({3, 4}), 2.0));

  ASSERT_TRUE(store.heldVersion(3).has_value());
  EXPECT_EQ(*store.heldVersion(3), 2u);
  EXPECT_FALSE(store.heldVersion(99).has_value());

  const DiskStore::StoredItem* fetched = store.fetch(3, 3.0);
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(fetched->payload, bytes({3, 4}));
  EXPECT_TRUE(store.memory().find(PeerStore::kRow, 3).has_value());
}

TEST(PeerStore, DiskTierServesWhatMemoryEvicted) {
  // Memory budget fits one 64-byte entry; the disk tier keeps both.
  PeerStore store(/*itemCount=*/2, 80, {tempLog("evict"), 1u << 20});
  ASSERT_TRUE(store.diskOk());
  const std::vector<std::uint8_t> payload(64, 0x11);
  EXPECT_TRUE(store.install(0, 5, payload, 0.0));
  EXPECT_TRUE(store.install(1, 6, payload, 1.0));

  // Item 0 fell out of the LRU tier, but heldVersion still answers from disk.
  ASSERT_TRUE(store.heldVersion(0).has_value());
  EXPECT_EQ(*store.heldVersion(0), 5u);
  const DiskStore::StoredItem* fetched = store.fetch(0, 2.0);
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(fetched->version, 5u);
}

}  // namespace
}  // namespace dtncache::peer
