#include "peer/wire.hpp"

#include <cstring>

#include "core/crc32.hpp"
#include "sim/assert.hpp"

namespace dtncache::peer {
namespace {

// ---- little-endian writers ---------------------------------------------------

using core::putU32;
using core::putU64;

void putU8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

// ---- bounds-checked little-endian reader ------------------------------------

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > size_) return false;
    v = data_[pos_++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > size_) return false;
    v = core::readU32(data_ + pos_);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > size_) return false;
    v = core::readU64(data_ + pos_);
    pos_ += 8;
    return true;
  }
  bool bytes(std::vector<std::uint8_t>& out, std::size_t n) {
    if (pos_ + n > size_) return false;
    out.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return true;
  }
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

DecodeResult reject(const char* why) {
  DecodeResult r;
  r.status = DecodeStatus::kReject;
  r.error = why;
  return r;
}

constexpr std::size_t kVvEntryBytes = 4 + 8;

bool decodeBody(FrameType type, Reader& in, FrameBody& out, const char*& error) {
  switch (type) {
    case FrameType::kHello: {
      Hello h;
      if (!in.u32(h.node) || !in.u32(h.nodeCount) || !in.u32(h.itemCount)) {
        error = "hello: truncated payload";
        return false;
      }
      out = h;
      return true;
    }
    case FrameType::kVersionVector: {
      VersionVector vv;
      std::uint32_t count = 0;
      if (!in.u32(count)) {
        error = "version_vector: truncated count";
        return false;
      }
      // Count must match the bytes actually present — a huge count with a
      // short payload must not turn into a giant reserve().
      if (static_cast<std::uint64_t>(count) * kVvEntryBytes != in.remaining()) {
        error = "version_vector: entry count disagrees with payload length";
        return false;
      }
      vv.entries.resize(count);
      for (VersionVectorEntry& e : vv.entries) {
        if (!in.u32(e.item) || !in.u64(e.version)) {
          error = "version_vector: truncated entry";
          return false;
        }
      }
      out = std::move(vv);
      return true;
    }
    case FrameType::kRefreshPush: {
      RefreshPush p;
      std::uint32_t payloadLen = 0;
      if (!in.u32(p.item) || !in.u64(p.version) || !in.u32(payloadLen)) {
        error = "refresh_push: truncated header";
        return false;
      }
      if (payloadLen != in.remaining()) {
        error = "refresh_push: payload length disagrees with frame length";
        return false;
      }
      if (!in.bytes(p.payload, payloadLen)) {
        error = "refresh_push: truncated payload";
        return false;
      }
      out = std::move(p);
      return true;
    }
    case FrameType::kQuery: {
      Query q;
      if (!in.u64(q.queryId) || !in.u32(q.item)) {
        error = "query: truncated payload";
        return false;
      }
      out = q;
      return true;
    }
    case FrameType::kReply: {
      Reply r;
      std::uint8_t hasCopy = 0;
      if (!in.u64(r.queryId) || !in.u32(r.item) || !in.u64(r.version) || !in.u8(hasCopy)) {
        error = "reply: truncated payload";
        return false;
      }
      if (hasCopy > 1) {
        error = "reply: non-boolean hasCopy";
        return false;
      }
      r.hasCopy = hasCopy != 0;
      out = r;
      return true;
    }
    case FrameType::kReparent: {
      Reparent r;
      if (!in.u32(r.item) || !in.u32(r.child) || !in.u32(r.newParent)) {
        error = "reparent: truncated payload";
        return false;
      }
      out = r;
      return true;
    }
    case FrameType::kBye:
      out = Bye{};
      return true;
  }
  error = "unknown frame type";
  return false;
}

}  // namespace

FrameType frameTypeOf(const FrameBody& body) {
  struct Visitor {
    FrameType operator()(const Hello&) const { return FrameType::kHello; }
    FrameType operator()(const VersionVector&) const { return FrameType::kVersionVector; }
    FrameType operator()(const RefreshPush&) const { return FrameType::kRefreshPush; }
    FrameType operator()(const Query&) const { return FrameType::kQuery; }
    FrameType operator()(const Reply&) const { return FrameType::kReply; }
    FrameType operator()(const Reparent&) const { return FrameType::kReparent; }
    FrameType operator()(const Bye&) const { return FrameType::kBye; }
  };
  return std::visit(Visitor{}, body);
}

std::vector<std::uint8_t> encodeFrame(const FrameBody& body) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + 64);
  putU32(out, kWireMagic);
  putU8(out, kWireVersion);
  putU8(out, static_cast<std::uint8_t>(frameTypeOf(body)));
  putU16(out, 0);   // reserved
  putU32(out, 0);   // payload length, patched below

  struct Visitor {
    std::vector<std::uint8_t>& out;
    void operator()(const Hello& h) const {
      putU32(out, h.node);
      putU32(out, h.nodeCount);
      putU32(out, h.itemCount);
    }
    void operator()(const VersionVector& vv) const {
      putU32(out, static_cast<std::uint32_t>(vv.entries.size()));
      for (const VersionVectorEntry& e : vv.entries) {
        putU32(out, e.item);
        putU64(out, e.version);
      }
    }
    void operator()(const RefreshPush& p) const {
      putU32(out, p.item);
      putU64(out, p.version);
      putU32(out, static_cast<std::uint32_t>(p.payload.size()));
      out.insert(out.end(), p.payload.begin(), p.payload.end());
    }
    void operator()(const Query& q) const {
      putU64(out, q.queryId);
      putU32(out, q.item);
    }
    void operator()(const Reply& r) const {
      putU64(out, r.queryId);
      putU32(out, r.item);
      putU64(out, r.version);
      putU8(out, r.hasCopy ? 1 : 0);
    }
    void operator()(const Reparent& r) const {
      putU32(out, r.item);
      putU32(out, r.child);
      putU32(out, r.newParent);
    }
    void operator()(const Bye&) const {}
  };
  std::visit(Visitor{out}, body);

  const std::size_t payload = out.size() - kFrameHeaderBytes;
  DTNCACHE_CHECK_MSG(payload <= kMaxPayloadBytes, "encoded frame exceeds payload cap");
  for (int i = 0; i < 4; ++i)
    out[8 + i] = static_cast<std::uint8_t>(payload >> (8 * i));
  return out;
}

DecodeResult decodeFrame(const std::uint8_t* data, std::size_t size) {
  DecodeResult result;
  if (size < kFrameHeaderBytes) return result;  // kNeedMore

  Reader header(data, kFrameHeaderBytes);
  std::uint32_t magic = 0, length = 0;
  std::uint8_t version = 0, type = 0;
  std::uint8_t reservedLo = 0, reservedHi = 0;
  header.u32(magic);
  header.u8(version);
  header.u8(type);
  header.u8(reservedLo);
  header.u8(reservedHi);
  header.u32(length);

  if (magic != kWireMagic) return reject("bad magic");
  if (version != kWireVersion) return reject("unsupported protocol version");
  if (reservedLo != 0 || reservedHi != 0) return reject("nonzero reserved bits");
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kBye))
    return reject("unknown frame type");
  if (length > kMaxPayloadBytes) return reject("payload length exceeds cap");

  if (size < kFrameHeaderBytes + length) return result;  // kNeedMore

  Reader payload(data + kFrameHeaderBytes, length);
  FrameBody body = Bye{};
  const char* error = nullptr;
  if (!decodeBody(static_cast<FrameType>(type), payload, body, error))
    return reject(error);
  if (!payload.done()) return reject("trailing bytes in payload");

  result.status = DecodeStatus::kFrame;
  result.consumed = kFrameHeaderBytes + length;
  result.frame = std::move(body);
  return result;
}

}  // namespace dtncache::peer
