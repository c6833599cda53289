#pragma once

/// \file rate_matrix.hpp
/// Symmetric matrix of pairwise contact rates λ_ij, dense or sparse.
///
/// The exponential pairwise inter-contact model — contacts of pair (i,j)
/// arriving as a Poisson process with rate λ_ij — is the analytical backbone
/// of the paper: every refresh-probability and replication decision reduces
/// to functions of λ_ij. A RateMatrix is either ground truth (driving a
/// synthetic generator, or fit from a whole trace) or a node's local
/// estimate (trace/estimator.hpp).
///
/// Storage is a PairIndex (trace/pair_index.hpp, which owns the dense or
/// sparse layout decision) plus one λ per slot. Pairs without a slot — only
/// possible in the sparse layout — read as `defaultRate()` (0 unless
/// constructed otherwise), and neighbor iteration touches slotted pairs
/// only, which is what makes 10^5–10^6-node scenarios fit in memory. The
/// layout never changes a value.

#include <cmath>
#include <limits>
#include <vector>

#include "sim/assert.hpp"
#include "trace/contact.hpp"
#include "trace/pair_index.hpp"

namespace dtncache::trace {

/// P(at least one contact of a Poisson(rate) process within window t).
inline double contactProbability(double rate, sim::SimTime window) {
  DTNCACHE_CHECK(rate >= 0.0 && window >= 0.0);
  return 1.0 - std::exp(-rate * window);
}

/// Expected delay until the next contact of a Poisson(rate) process;
/// infinity when rate == 0.
inline double expectedContactDelay(double rate) {
  return rate > 0.0 ? 1.0 / rate : std::numeric_limits<double>::infinity();
}

class RateMatrix {
 public:
  RateMatrix() = default;

  /// Auto-selected layout (dense at paper scale, sparse above the
  /// threshold or under the DTNCACHE_SPARSE_PAIRS override). n == 0 and
  /// n == 1 are valid degenerate matrices with no pairs.
  explicit RateMatrix(std::size_t n) : RateMatrix(n, PairBackend::kAuto) {}

  /// Explicit layout; `defaultRate` is what a pair reads until setRate
  /// touches it.
  RateMatrix(std::size_t n, PairBackend backend, double defaultRate = 0.0)
      : pairs_(n, backend), defaultRate_(defaultRate), values_(pairs_.slotCount(), defaultRate) {
    DTNCACHE_CHECK(defaultRate >= 0.0);
  }

  std::size_t nodeCount() const { return pairs_.nodeCount(); }
  bool isSparse() const { return pairs_.isSparse(); }
  double defaultRate() const { return defaultRate_; }

  /// Pairs with a stored entry: every set pair in the sparse layout, the
  /// whole triangle in the dense one.
  std::size_t observedPairCount() const { return values_.size(); }

  double rate(NodeId i, NodeId j) const {
    if (i == j) return 0.0;
    const std::uint32_t slot = pairs_.find(i, j);
    return slot == PairIndex::kNoSlot ? defaultRate_ : values_[slot];
  }

  void setRate(NodeId i, NodeId j, double lambda) {
    DTNCACHE_CHECK(lambda >= 0.0);
    at(i, j) = lambda;
  }

  /// P(i meets j at least once within `window`).
  double meetingProbability(NodeId i, NodeId j, sim::SimTime window) const {
    return contactProbability(rate(i, j), window);
  }

  /// Visit node i's stored pairs as f(NodeId j, double rate), in ascending
  /// j — every j != i in the dense layout.
  template <typename F>
  void forEachNeighbor(NodeId i, F&& f) const {
    pairs_.forEachNeighbor(i, [&](NodeId j, std::uint32_t slot) { f(j, values_[slot]); });
  }

  /// Fit the maximum-likelihood rate matrix from a trace:
  /// λ_ij = (#contacts of pair) / (trace duration).
  static RateMatrix fitFromTrace(const ContactTrace& trace,
                                 PairBackend backend = PairBackend::kAuto);

 private:
  /// Stored value of pair {i, j}, created at defaultRate_ if absent.
  double& at(NodeId i, NodeId j) {
    const std::uint32_t slot = pairs_.insert(i, j);
    if (slot == values_.size()) values_.push_back(defaultRate_);
    return values_[slot];
  }

  PairIndex pairs_;
  double defaultRate_ = 0.0;
  std::vector<double> values_;  ///< slot -> λ
};

}  // namespace dtncache::trace
