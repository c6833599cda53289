#include "peer/disk_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/crc32.hpp"
#include "sim/assert.hpp"

namespace dtncache::peer {

namespace {

// Record guarding (CRC-32 + LE integer framing) comes from core/crc32.hpp,
// shared with the sweep engine's result fragments.
using core::crc32;
using core::putU32;
using core::putU64;
using core::readU32;
using core::readU64;

constexpr std::uint8_t kRecordPut = 1;
constexpr std::uint8_t kRecordRemove = 2;
constexpr std::size_t kRecordHeaderBytes = 8;           // length + crc
constexpr std::size_t kBodyFixedBytes = 1 + 4 + 8 + 4;  // kind|item|version|payloadLen

bool writeAll(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// One whole log record: length and CRC of the body, then the body.
std::vector<std::uint8_t> encodeRecord(std::uint8_t kind, data::ItemId item,
                                       data::Version version,
                                       const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> body;
  body.reserve(kBodyFixedBytes + payload.size());
  body.push_back(kind);
  putU32(body, item);
  putU64(body, version);
  putU32(body, static_cast<std::uint32_t>(payload.size()));
  body.insert(body.end(), payload.begin(), payload.end());
  std::vector<std::uint8_t> record;
  record.reserve(kRecordHeaderBytes + body.size());
  putU32(record, static_cast<std::uint32_t>(body.size()));
  putU32(record, crc32(body.data(), body.size()));
  record.insert(record.end(), body.begin(), body.end());
  return record;
}

}  // namespace

DiskStore::~DiskStore() { close(); }

bool DiskStore::open(Config config) {
  DTNCACHE_CHECK_MSG(fd_ < 0, "DiskStore::open: already open");
  config_ = std::move(config);
  fd_ = ::open(config_.path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return false;
  if (!replay()) {
    close();
    return false;
  }
  return true;
}

void DiskStore::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  index_ = core::SlotIndex();
  items_.clear();
  live_.clear();
  freeSlots_.clear();
  logBytes_ = liveBytes_ = 0;
}

bool DiskStore::replay() {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return false;
  const std::size_t fileBytes = static_cast<std::size_t>(st.st_size);

  std::vector<std::uint8_t> raw(fileBytes);
  std::size_t got = 0;
  while (got < fileBytes) {
    const ssize_t n = ::pread(fd_, raw.data() + got, fileBytes - got,
                              static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }

  std::size_t offset = 0;
  while (offset + kRecordHeaderBytes <= got) {
    const std::uint32_t length = readU32(raw.data() + offset);
    const std::uint32_t crc = readU32(raw.data() + offset + 4);
    if (length < kBodyFixedBytes || offset + kRecordHeaderBytes + length > got)
      break;  // torn tail: length field half-written or body incomplete
    const std::uint8_t* body = raw.data() + offset + kRecordHeaderBytes;
    if (crc32(body, length) != crc) break;  // torn tail: body half-written

    const std::uint8_t kind = body[0];
    const data::ItemId item = readU32(body + 1);
    const data::Version version = readU64(body + 5);
    const std::uint32_t payloadLen = readU32(body + 13);
    if (kBodyFixedBytes + payloadLen != length) break;

    if (kind == kRecordPut) {
      applyPut(item, version,
               std::vector<std::uint8_t>(body + kBodyFixedBytes,
                                         body + kBodyFixedBytes + payloadLen));
    } else if (kind == kRecordRemove) {
      applyRemove(item);
    } else {
      break;  // unknown kind: treat as corruption boundary
    }
    offset += kRecordHeaderBytes + length;
  }

  if (offset < got) {
    // Drop the torn tail so the next append starts on a clean boundary.
    ++truncatedOnReplay_;
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) return false;
  }
  logBytes_ = offset;
  return true;
}

void DiskStore::applyPut(data::ItemId item, data::Version version,
                         std::vector<std::uint8_t> payload) {
  const std::uint32_t existing = index_.find(item);
  if (existing != core::SlotIndex::kNoSlot) {
    StoredItem& s = items_[existing];
    if (s.version >= version) return;
    liveBytes_ -= s.payload.size();
    s.version = version;
    s.payload = std::move(payload);
    liveBytes_ += s.payload.size();
    return;
  }
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(items_.size());
    items_.emplace_back();
    live_.push_back(false);
  }
  items_[slot] = StoredItem{item, version, std::move(payload)};
  live_[slot] = true;
  liveBytes_ += items_[slot].payload.size();
  index_.insert(item, slot);
}

void DiskStore::applyRemove(data::ItemId item) {
  const std::uint32_t slot = index_.erase(item);
  if (slot == core::SlotIndex::kNoSlot) return;
  liveBytes_ -= items_[slot].payload.size();
  items_[slot] = StoredItem{};
  live_[slot] = false;
  freeSlots_.push_back(slot);
}

bool DiskStore::appendRecord(std::uint8_t kind, data::ItemId item, data::Version version,
                             const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> record = encodeRecord(kind, item, version, payload);
  if (!writeAll(fd_, record.data(), record.size())) return false;
  logBytes_ += record.size();
  return true;
}

bool DiskStore::put(data::ItemId item, data::Version version,
                    const std::vector<std::uint8_t>& payload) {
  DTNCACHE_CHECK_MSG(fd_ >= 0, "DiskStore::put: store not open");
  const std::uint32_t slot = index_.find(item);
  if (slot != core::SlotIndex::kNoSlot && items_[slot].version >= version) return false;
  if (!appendRecord(kRecordPut, item, version, payload)) return false;
  applyPut(item, version, payload);
  maybeCompact();
  return true;
}

const DiskStore::StoredItem* DiskStore::get(data::ItemId item) const {
  const std::uint32_t slot = index_.find(item);
  return slot == core::SlotIndex::kNoSlot ? nullptr : &items_[slot];
}

bool DiskStore::remove(data::ItemId item) {
  DTNCACHE_CHECK_MSG(fd_ >= 0, "DiskStore::remove: store not open");
  if (index_.find(item) == core::SlotIndex::kNoSlot) return false;
  if (!appendRecord(kRecordRemove, item, 0, {})) return false;
  applyRemove(item);
  maybeCompact();
  return true;
}

void DiskStore::sync() {
  if (fd_ >= 0) ::fsync(fd_);
}

void DiskStore::maybeCompact() {
  if (logBytes_ < config_.compactThresholdBytes) return;
  // Only worth rewriting when at least half the file is dead bytes.
  const std::size_t liveRecordBytes =
      liveBytes_ + size() * (kRecordHeaderBytes + kBodyFixedBytes);
  if (liveRecordBytes * 2 > logBytes_) return;

  const std::string tmpPath = config_.path + ".compact";
  // O_APPEND matches open(): tmpFd becomes fd_ after the rename, and the
  // log's append-only discipline must not depend on where the file offset
  // happens to sit.
  const int tmpFd = ::open(tmpPath.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (tmpFd < 0) return;  // compaction is an optimization; skip on failure

  std::size_t written = 0;
  bool ok = true;
  for (std::size_t i = 0; i < items_.size() && ok; ++i) {
    if (!live_[i]) continue;
    const StoredItem& s = items_[i];
    const std::vector<std::uint8_t> record =
        encodeRecord(kRecordPut, s.item, s.version, s.payload);
    ok = writeAll(tmpFd, record.data(), record.size());
    written += record.size();
  }
  if (!ok || ::fsync(tmpFd) != 0 ||
      ::rename(tmpPath.c_str(), config_.path.c_str()) != 0) {
    ::close(tmpFd);
    ::unlink(tmpPath.c_str());
    return;
  }
  ::close(fd_);
  fd_ = tmpFd;  // tmpFd now refers to config_.path (rename kept the inode)
  logBytes_ = written;
  ++compactions_;
}

}  // namespace dtncache::peer
