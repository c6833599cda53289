#pragma once

/// \file dense_bitset.hpp
/// Growable word-packed bitset for dense ids.
///
/// The hot-path replacement for `unordered_set<uint64_t>` membership when
/// keys are dense (packed (query, answer slot) ids): test and set are
/// one shift-and-mask against a flat word array, and growth is geometric so
/// a warmed set never allocates again in steady state.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dtncache::core {

class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(std::size_t bits) : words_((bits + 63) / 64, 0) {}

  bool test(std::uint64_t bit) const {
    const std::size_t w = bit >> 6;
    if (w >= words_.size()) return false;
    return (words_[w] >> (bit & 63)) & 1u;
  }

  /// Set `bit`, growing the word array geometrically if needed. Returns
  /// true if the bit was newly set (it was clear before).
  bool set(std::uint64_t bit) {
    const std::size_t w = bit >> 6;
    if (w >= words_.size()) {
      std::size_t n = words_.empty() ? 16 : words_.size();
      while (n <= w) n <<= 1;
      words_.resize(n, 0);
    }
    const std::uint64_t mask = 1ull << (bit & 63);
    const bool fresh = (words_[w] & mask) == 0;
    words_[w] |= mask;
    return fresh;
  }

  /// Clear `bit` without growing; clearing past the end is a no-op.
  void reset(std::uint64_t bit) {
    const std::size_t w = bit >> 6;
    if (w < words_.size()) words_[w] &= ~(1ull << (bit & 63));
  }

  void clear() { words_.assign(words_.size(), 0); }

  /// One past the highest set bit (0 when none is set). A linear scan.
  std::uint64_t span() const {
    for (std::size_t w = words_.size(); w-- > 0;)
      if (words_[w] != 0) return w * 64 + std::bit_width(words_[w]);
    return 0;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace dtncache::core
