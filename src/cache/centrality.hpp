#pragma once

/// \file centrality.hpp
/// Contact-capability centrality and Network Central Location selection.
///
/// The cooperative-caching substrate (Gao et al., INFOCOM 2011) caches data
/// at Network Central Locations: the nodes best able to meet the rest of
/// the network. A node's metric is its expected reach within a window T,
///     C_i(T) = (1 / (N-1)) · Σ_{j≠i} (1 − e^{−λ_ij·T}),
/// i.e. the mean probability of meeting a random other node within T.
/// NCLs are the top-K nodes by this metric, greedily de-clustered: picking
/// two NCLs that mostly meet the *same* nodes wastes a slot, so after the
/// first pick each candidate's marginal coverage is what counts.
///
/// Every sum and greedy update walks a node's pairs one of two ways. With a
/// zero default (never-met) rate the walk visits the matrix's stored
/// neighbors only (trace/pair_index.hpp), so on a sparse matrix centrality
/// costs O(E + nk) instead of O(n²k). That is bit-identical to visiting
/// every node — a never-met pair contributes exactly 1 − e⁰ = 0.0 to every
/// sum and multiplies coverage by exactly 1.0, so skipping it cannot change
/// any accumulation, comparison, or tie-break. With a nonzero default rate
/// the walk looks up every j instead, in the same ascending order.

#include <cstddef>
#include <vector>

#include "sim/time.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::cache {

/// C_i(T) for every node.
std::vector<double> contactCapability(const trace::RateMatrix& rates, sim::SimTime window);

/// Top-k nodes by raw capability (ties broken by node id for determinism).
std::vector<NodeId> selectTopCapability(const trace::RateMatrix& rates, sim::SimTime window,
                                        std::size_t k);

/// Greedy marginal-coverage NCL selection: each pick maximizes the increase
/// of E[#nodes covered within T by at least one NCL]. Reduces to top-k when
/// coverage overlaps are negligible; differs (better) in community-
/// structured networks where top-k piles into one community.
std::vector<NodeId> selectNcls(const trace::RateMatrix& rates, sim::SimTime window,
                               std::size_t k);

/// Incrementally-maintained centrality inputs: the meeting-probability
/// cache (a PairIndex mirroring the rate matrix's stored pairs, in the
/// matrix's layout, plus one probability per slot), per-node capability,
/// and the last NCL set. The incremental contactCapability/selectNcls
/// overloads update it from a list of changed nodes (every node with at
/// least one changed rate-matrix row entry — ContactRateEstimator::
/// snapshotInto emits exactly that), so a maintenance tick re-derives only
/// what its dirty rows can affect and short-circuits entirely when nothing
/// changed. Results are bit-identical to the batch functions: probabilities
/// are cached from the same contactProbability evaluations and every sum
/// runs in the same j-order.
class CentralityState {
 public:
  bool primed() const { return primed_; }
  const std::vector<double>& capability() const { return capability_; }
  const std::vector<NodeId>& ncls() const { return ncls_; }
  /// Force a full re-derivation on the next incremental call.
  void invalidate() { primed_ = false; }

 private:
  friend const std::vector<double>& contactCapability(
      CentralityState& state, const trace::RateMatrix& rates, sim::SimTime window,
      const std::vector<NodeId>& changedNodes);
  friend bool selectNcls(CentralityState& state, const trace::RateMatrix& rates,
                         sim::SimTime window, std::size_t k,
                         const std::vector<NodeId>& changedNodes);

  /// Re-derive the cached probabilities of node i's pairs from `rates`.
  void rebuildRow(NodeId i, const trace::RateMatrix& rates);
  void refresh(const trace::RateMatrix& rates, sim::SimTime window,
               const std::vector<NodeId>& changedNodes);

  sim::SimTime window_ = 0.0;
  std::size_t k_ = 0;
  bool primed_ = false;
  double defaultP_ = 0.0;   ///< P for pairs the matrix does not store
  trace::PairIndex index_;  ///< mirrors the source matrix's stored pairs
  std::vector<double> probs_;  ///< slot -> P(i meets j in T)
  std::vector<double> capability_;  ///< C_i(T), kept current per refresh
  std::vector<NodeId> ncls_;        ///< NCL set from the last selectNcls
  std::vector<double> notCovered_;  ///< greedy scratch
  std::vector<char> isChosen_;      ///< greedy scratch
  std::vector<NodeId> scratchNcls_;
};

/// Incremental C_i(T): refresh the cached probabilities/capabilities for
/// `changedNodes` only (full derivation when unprimed or the matrix size /
/// layout / default rate / window differ) and return the capability
/// vector. Bit-identical to the batch overload.
const std::vector<double>& contactCapability(CentralityState& state,
                                             const trace::RateMatrix& rates,
                                             sim::SimTime window,
                                             const std::vector<NodeId>& changedNodes);

/// Incremental NCL selection: when the state is primed and `changedNodes`
/// is empty (and n/window/k are unchanged) the greedy pass is skipped
/// outright; otherwise the cached probabilities are refreshed and the
/// greedy selection re-runs over them. Returns true when the resulting NCL
/// set differs from the previous call (the first call on an unprimed state
/// reports true). The set itself is `state.ncls()`.
bool selectNcls(CentralityState& state, const trace::RateMatrix& rates,
                sim::SimTime window, std::size_t k,
                const std::vector<NodeId>& changedNodes);

}  // namespace dtncache::cache
