#pragma once

/// \file wire.hpp
/// The dtncache peer wire protocol: versioned, length-prefixed binary
/// frames carrying the contact handshake (hello + version-metadata vector,
/// per docs/protocol.md step 2), refresh pushes, query/reply, and
/// hierarchy reparent notifications between live peer daemons.
///
/// Layout (all integers little-endian, serialized explicitly — no struct
/// punning, so the format is identical on every host):
///
///     magic   u32   0x434E5444 (the bytes "DTNC" on the wire)
///     version u8    kWireVersion
///     type    u8    FrameType
///     reserved u16  must be zero
///     length  u32   payload byte count (bounded by kMaxPayloadBytes)
///     payload …     type-specific, see the table in docs/peerd.md
///
/// `decodeFrame` is fuzz-friendly by contract: any byte sequence either
/// yields kNeedMore (a frame prefix), a decoded frame, or kReject with a
/// reason — it never asserts, throws, or reads out of bounds, so a
/// malicious or corrupted peer stream cannot take the daemon down. A
/// rejected stream is unrecoverable (length framing is lost) and the
/// session must be closed.

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "data/item.hpp"
#include "trace/contact.hpp"

namespace dtncache::peer {

inline constexpr std::uint32_t kWireMagic = 0x434E5444u;  // bytes "DTNC" on the wire
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Frames above this payload size are rejected outright: version metadata
/// and single-item pushes are small, so a huge length prefix is corruption
/// or an attack, not data.
inline constexpr std::uint32_t kMaxPayloadBytes = 16u * 1024 * 1024;

enum class FrameType : std::uint8_t {
  kHello = 1,          ///< session handshake: identity + catalog shape
  kVersionVector = 2,  ///< per-item version metadata (the contact handshake)
  kRefreshPush = 3,    ///< one item version with payload bytes
  kQuery = 4,          ///< request for an item
  kReply = 5,          ///< answer to a query
  kReparent = 6,       ///< hierarchy maintenance moved a child's parent
  kBye = 7,            ///< graceful close
};

/// Session handshake. Peers must agree on the catalog size; a mismatched
/// hello is a configuration error and closes the session.
struct Hello {
  NodeId node = 0;
  std::uint32_t nodeCount = 0;
  std::uint32_t itemCount = 0;
};

struct VersionVectorEntry {
  data::ItemId item = 0;
  data::Version version = 0;
};

/// The version-metadata exchange: what the sender currently holds. A node
/// with no copy of an item omits the entry.
struct VersionVector {
  std::vector<VersionVectorEntry> entries;
};

struct RefreshPush {
  data::ItemId item = 0;
  data::Version version = 0;
  std::vector<std::uint8_t> payload;
};

struct Query {
  std::uint64_t queryId = 0;
  data::ItemId item = 0;
};

struct Reply {
  std::uint64_t queryId = 0;
  data::ItemId item = 0;
  data::Version version = 0;
  bool hasCopy = false;
};

struct Reparent {
  data::ItemId item = 0;
  NodeId child = 0;
  NodeId newParent = 0;
};

struct Bye {};

using FrameBody =
    std::variant<Hello, VersionVector, RefreshPush, Query, Reply, Reparent, Bye>;

FrameType frameTypeOf(const FrameBody& body);

/// Serialize one frame (header + payload). Total size is bounded by the
/// payload cap, which encodeFrame enforces with a check — encoding is
/// driven by our own code, so an oversized frame is a programming error.
std::vector<std::uint8_t> encodeFrame(const FrameBody& body);

enum class DecodeStatus : std::uint8_t {
  kNeedMore,  ///< `data` is a valid proper prefix; read more bytes
  kFrame,     ///< one frame decoded; `consumed` bytes were used
  kReject,    ///< malformed stream; close the session (see `error`)
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;           ///< kFrame only
  std::optional<FrameBody> frame;     ///< kFrame only
  const char* error = nullptr;        ///< kReject only (static string)
};

/// Decode the first frame of `data`. Never throws; never reads beyond
/// `size`. Trailing bytes after the first frame are left for the next
/// call (stream framing).
DecodeResult decodeFrame(const std::uint8_t* data, std::size_t size);

}  // namespace dtncache::peer
