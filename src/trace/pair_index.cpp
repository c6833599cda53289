#include "trace/pair_index.hpp"

#include <algorithm>
#include <cstdlib>

namespace dtncache::trace {

bool useSparsePairs(std::size_t nodeCount, PairBackend requested) {
  if (requested != PairBackend::kAuto) return requested == PairBackend::kSparse;
  const char* env = std::getenv("DTNCACHE_SPARSE_PAIRS");
  if (env != nullptr && env[0] != '\0')
    return !((env[0] == '0' && env[1] == '\0') || env[0] == 'd' || env[0] == 'D');
  return nodeCount > kDensePairNodeThreshold;
}

PairIndex::PairIndex(std::size_t nodeCount, PairBackend requested)
    : n_(nodeCount), sparse_(useSparsePairs(nodeCount, requested)) {
  // Dense slots are 32-bit like sparse ones; forcing dense onto a network
  // whose triangle overflows them is a configuration error.
  DTNCACHE_CHECK_MSG(sparse_ || triangleSize(n_) < kNoSlot,
                     "dense pair layout too large for " << n_ << " nodes");
  if (sparse_) rows_.resize(n_);
}

std::uint32_t PairIndex::insert(NodeId i, NodeId j) {
  std::uint32_t slot = find(i, j);
  if (slot != kNoSlot) return slot;
  slot = static_cast<std::uint32_t>(slots_.size());
  slots_.insert(core::packSymmetricPair(i, j), slot);
  for (const auto& [u, v] : {std::pair{i, j}, std::pair{j, i}}) {
    auto& row = rows_[u];
    const auto pos = std::lower_bound(
        row.begin(), row.end(), v, [](const Neighbor& nb, NodeId id) { return nb.id < id; });
    row.insert(pos, Neighbor{v, slot});
  }
  return slot;
}

}  // namespace dtncache::trace
