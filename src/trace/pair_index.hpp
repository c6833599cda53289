#pragma once

/// \file pair_index.hpp
/// The one module that decides how pairwise (per node pair) state is laid
/// out.
///
/// Every pairwise structure in the reproduction — the rate matrix, the
/// contact-rate estimator's pair table, the centrality probability cache —
/// is a PairIndex plus a value vector indexed by the index's slot numbers.
/// Only this module knows the two layouts:
///  - kDense: an n(n-1)/2 upper-triangular numbering where every pair has
///    a slot from the start. A lookup is one branch plus the triangular
///    arithmetic; the right choice for the few-hundred-node paper scenarios
///    where the triangle is smaller than any hash table.
///  - kSparse: slots exist for inserted pairs only, numbered in insertion
///    order behind an open-addressing SlotIndex over packed pair keys, with
///    per-node ascending adjacency rows. Memory and iteration cost scale
///    with pairs that actually met, which is what makes 10^5–10^6-node
///    scenarios representable at all — in opportunistic traces almost all
///    of the n^2/2 pairs never meet.
///
/// kAuto picks dense at and below kDensePairNodeThreshold nodes and sparse
/// above, so small-N experiments keep the dense lookup while large-N
/// scenarios never allocate a triangle. The DTNCACHE_SPARSE_PAIRS
/// environment variable overrides kAuto ("0" or "dense" forces dense, any
/// other non-empty value forces sparse). It is read each time an index
/// picks its layout, so every structure follows the environment at its own
/// construction. CI uses it to assert that forced-sparse small-N sweeps are
/// byte-identical to the default dense run. Deliberately not a config key:
/// run fingerprints must match across layouts.
///
/// Equivalence contract (enforced by tests/trace/sparse_equivalence_test):
/// values never depend on the layout. A pair without a slot reads as its
/// structure's default; forEachNeighbor visits every other node in the
/// dense layout and the inserted pairs in the sparse one, both in
/// ascending j, so a walk over neighbors equals the dense walk restricted
/// to inserted pairs. Sums that skip only default terms are therefore
/// bit-identical across layouts whenever the default contributes exactly
/// 0.0 — consumers with a nonzero default walk every j through find()
/// instead.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/pair_key.hpp"
#include "core/slot_index.hpp"
#include "sim/assert.hpp"
#include "trace/contact.hpp"

namespace dtncache::trace {

/// A layout request: kAuto resolves through useSparsePairs().
enum class PairBackend { kAuto, kDense, kSparse };

/// Node count at and below which kAuto chooses the dense layout.
inline constexpr std::size_t kDensePairNodeThreshold = 1024;

/// Resolve a requested layout for an n-node structure: an explicit request
/// wins, then the DTNCACHE_SPARSE_PAIRS override (read on every call), then
/// the size threshold.
bool useSparsePairs(std::size_t nodeCount, PairBackend requested);

class PairIndex {
 public:
  static constexpr std::uint32_t kNoSlot = core::SlotIndex::kNoSlot;

  /// Pairs of an n-node triangle.
  static constexpr std::size_t triangleSize(std::size_t n) {
    return n >= 2 ? n * (n - 1) / 2 : 0;
  }

  PairIndex() = default;

  /// n == 0 and n == 1 are valid degenerate indexes with no pairs.
  PairIndex(std::size_t nodeCount, PairBackend requested);

  std::size_t nodeCount() const { return n_; }
  bool isSparse() const { return sparse_; }
  /// The resolved layout (never kAuto).
  PairBackend layout() const { return sparse_ ? PairBackend::kSparse : PairBackend::kDense; }

  /// Slots in use are [0, slotCount()): the whole triangle in the dense
  /// layout, the inserted pairs in insertion order in the sparse one.
  std::size_t slotCount() const { return sparse_ ? slots_.size() : triangleSize(n_); }

  /// Slot of pair {i, j}, or kNoSlot if the sparse layout never saw it.
  std::uint32_t find(NodeId i, NodeId j) const {
    DTNCACHE_CHECK(i != j && i < n_ && j < n_);
    if (!sparse_) return triangular(i, j);
    return slots_.find(core::packSymmetricPair(i, j));
  }

  /// Slot of pair {i, j}, creating it if absent. A new slot is always
  /// slotCount() before the call, so owners grow their value vectors by
  /// one; in the dense layout every slot exists and this is find().
  std::uint32_t insert(NodeId i, NodeId j);

  /// Visit f(NodeId j, std::uint32_t slot) for node i's pairs in ascending
  /// j: every j != i in the dense layout, the inserted pairs in the sparse
  /// one.
  template <typename F>
  void forEachNeighbor(NodeId i, F&& f) const {
    DTNCACHE_CHECK(i < n_);
    if (sparse_) {
      for (const Neighbor& nb : rows_[i]) f(nb.id, nb.slot);
      return;
    }
    for (NodeId j = 0; j < n_; ++j)
      if (j != i) f(j, triangular(i, j));
  }

 private:
  struct Neighbor {
    NodeId id;
    std::uint32_t slot;
  };

  std::uint32_t triangular(NodeId i, NodeId j) const {
    if (i > j) std::swap(i, j);
    // Row-major upper triangle: row i holds the n-1-i pairs (i, j > i).
    return static_cast<std::uint32_t>(static_cast<std::size_t>(i) * (2 * n_ - i - 1) / 2 +
                                      (j - i - 1));
  }

  std::size_t n_ = 0;
  bool sparse_ = false;
  core::SlotIndex slots_;                      ///< sparse: packed pair -> slot
  std::vector<std::vector<Neighbor>> rows_;    ///< sparse: per node, ascending j
};

}  // namespace dtncache::trace
