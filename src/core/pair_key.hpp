#pragma once

/// \file pair_key.hpp
/// Packed 64-bit pair keys: the one-word encoding of an (a, b) id pair that
/// hashes in a single op and sorts exactly like the tuple (a, b).
///
/// Several modules key sparse per-pair state this way — trace analysis
/// drains per-pair statistics in sorted-key order (deterministic FP
/// accumulation), and the pair index behind the rate matrix and the
/// contact-rate estimator finds its slots by it — so the helper lives here, at
/// the bottom of the include graph (header-only, no dependencies), instead
/// of being re-derived at each site.

#include <cstdint>

namespace dtncache::core {

/// Ordered pack: `hi` in the high word. Sorts like the tuple (hi, lo).
inline constexpr std::uint64_t packPair(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Symmetric pack: min(a, b) in the high word, so (a, b) and (b, a) map to
/// the same key and keys sort like the normalized (min, max) tuple.
inline constexpr std::uint64_t packSymmetricPair(std::uint32_t a, std::uint32_t b) {
  return a < b ? packPair(a, b) : packPair(b, a);
}

}  // namespace dtncache::core
