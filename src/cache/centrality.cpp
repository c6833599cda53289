#include "cache/centrality.hpp"

#include <algorithm>
#include <numeric>

#include "sim/assert.hpp"

namespace dtncache::cache {
namespace {

/// Meeting probabilities straight from a rate matrix (the batch functions).
struct MatrixProbs {
  const trace::RateMatrix& rates;
  sim::SimTime window;
  double defaultP;

  std::size_t nodeCount() const { return rates.nodeCount(); }
  template <typename F>
  void forEachStored(NodeId i, F&& f) const {
    rates.forEachNeighbor(i, [&](NodeId j, double r) { f(j, trace::contactProbability(r, window)); });
  }
  double lookup(NodeId i, NodeId j) const { return rates.meetingProbability(i, j, window); }
};

/// Meeting probabilities from a CentralityState's cache.
struct CachedProbs {
  const trace::PairIndex& index;
  const std::vector<double>& probs;
  double defaultP;

  std::size_t nodeCount() const { return index.nodeCount(); }
  template <typename F>
  void forEachStored(NodeId i, F&& f) const {
    index.forEachNeighbor(i, [&](NodeId j, std::uint32_t slot) { f(j, probs[slot]); });
  }
  double lookup(NodeId i, NodeId j) const {
    const std::uint32_t slot = index.find(i, j);
    return slot == trace::PairIndex::kNoSlot ? defaultP : probs[slot];
  }
};

/// f(j, P(i meets j)) in ascending j for every j != i whose P can be
/// nonzero: the stored pairs when the default P is 0 (skipping exact 0.0
/// terms changes no sum, product or comparison), every j otherwise.
template <typename Probs, typename F>
void forEachMeeting(const Probs& probs, NodeId i, F&& f) {
  if (probs.defaultP == 0.0) {
    probs.forEachStored(i, f);
    return;
  }
  const std::size_t n = probs.nodeCount();
  for (NodeId j = 0; j < n; ++j)
    if (j != i) f(j, probs.lookup(i, j));
}

template <typename Probs>
double capabilityOf(const Probs& probs, NodeId i) {
  const std::size_t n = probs.nodeCount();
  double sum = 0.0;
  forEachMeeting(probs, i, [&](NodeId, double p) { sum += p; });
  return n > 1 ? sum / static_cast<double>(n - 1) : 0.0;
}

/// The greedy marginal-coverage pass shared by both selectNcls overloads.
template <typename Probs>
void greedyNcls(const Probs& probs, std::size_t k, std::vector<double>& notCovered,
                std::vector<char>& isChosen, std::vector<NodeId>& chosen) {
  const std::size_t n = probs.nodeCount();
  k = std::min(k, n);
  chosen.clear();
  // notCovered[j] = P(no chosen NCL meets j within the window).
  notCovered.assign(n, 1.0);
  isChosen.assign(n, 0);
  for (std::size_t pick = 0; pick < k; ++pick) {
    NodeId best = kNoNode;
    double bestGain = -1.0;
    for (NodeId cand = 0; cand < n; ++cand) {
      if (isChosen[cand]) continue;
      double gain = 0.0;
      forEachMeeting(probs, cand, [&](NodeId j, double p) {
        if (!isChosen[j]) gain += notCovered[j] * p;
      });
      if (gain > bestGain) {
        bestGain = gain;
        best = cand;
      }
    }
    DTNCACHE_CHECK(best != kNoNode);
    isChosen[best] = 1;
    chosen.push_back(best);
    forEachMeeting(probs, best, [&](NodeId j, double p) { notCovered[j] *= 1.0 - p; });
  }
}

MatrixProbs matrixProbs(const trace::RateMatrix& rates, sim::SimTime window) {
  return {rates, window, trace::contactProbability(rates.defaultRate(), window)};
}

}  // namespace

std::vector<double> contactCapability(const trace::RateMatrix& rates, sim::SimTime window) {
  DTNCACHE_CHECK(window > 0.0);
  const MatrixProbs probs = matrixProbs(rates, window);
  std::vector<double> cap(rates.nodeCount(), 0.0);
  for (NodeId i = 0; i < cap.size(); ++i) cap[i] = capabilityOf(probs, i);
  return cap;
}

std::vector<NodeId> selectTopCapability(const trace::RateMatrix& rates, sim::SimTime window,
                                        std::size_t k) {
  const auto cap = contactCapability(rates, window);
  std::vector<NodeId> ids(rates.nodeCount());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&cap](NodeId a, NodeId b) {
    if (cap[a] != cap[b]) return cap[a] > cap[b];
    return a < b;
  });
  ids.resize(std::min(k, ids.size()));
  return ids;
}

std::vector<NodeId> selectNcls(const trace::RateMatrix& rates, sim::SimTime window,
                               std::size_t k) {
  std::vector<double> notCovered;
  std::vector<char> isChosen;
  std::vector<NodeId> chosen;
  greedyNcls(matrixProbs(rates, window), k, notCovered, isChosen, chosen);
  return chosen;
}

void CentralityState::rebuildRow(NodeId i, const trace::RateMatrix& rates) {
  // Reset first: a pair the matrix no longer stores reads as the default.
  index_.forEachNeighbor(i, [&](NodeId, std::uint32_t slot) { probs_[slot] = defaultP_; });
  rates.forEachNeighbor(i, [&](NodeId j, double r) {
    const std::uint32_t slot = index_.insert(i, j);
    if (slot == probs_.size()) probs_.push_back(defaultP_);
    probs_[slot] = trace::contactProbability(r, window_);
  });
}

void CentralityState::refresh(const trace::RateMatrix& rates, sim::SimTime window,
                              const std::vector<NodeId>& changedNodes) {
  DTNCACHE_CHECK(window > 0.0);
  const std::size_t n = rates.nodeCount();
  const double defaultP = trace::contactProbability(rates.defaultRate(), window);
  bool reprime = !primed_ || window_ != window || defaultP_ != defaultP;
  if (index_.nodeCount() != n || index_.layout() != rates.layout()) {
    index_ = trace::PairIndex(n, rates.layout());
    probs_.assign(index_.slotCount(), 0.0);
    reprime = true;
  }
  const CachedProbs cached{index_, probs_, defaultP};
  if (reprime) {
    window_ = window;
    defaultP_ = defaultP;
    capability_.assign(n, 0.0);
    for (NodeId i = 0; i < n; ++i) rebuildRow(i, rates);
    for (NodeId i = 0; i < n; ++i) capability_[i] = capabilityOf(cached, i);
    return;
  }
  // A changed pair reports both endpoints, so rebuilding every changed row
  // rewrites every stale probability (shared pairs twice, to the same
  // value) and every stale capability.
  for (const NodeId i : changedNodes) rebuildRow(i, rates);
  for (const NodeId i : changedNodes) capability_[i] = capabilityOf(cached, i);
}

const std::vector<double>& contactCapability(CentralityState& state,
                                             const trace::RateMatrix& rates,
                                             sim::SimTime window,
                                             const std::vector<NodeId>& changedNodes) {
  state.refresh(rates, window, changedNodes);
  state.primed_ = true;
  return state.capability_;
}

bool selectNcls(CentralityState& state, const trace::RateMatrix& rates,
                sim::SimTime window, std::size_t k,
                const std::vector<NodeId>& changedNodes) {
  const bool sameShape = state.primed_ && state.index_.nodeCount() == rates.nodeCount() &&
                         state.window_ == window && state.k_ == k;
  if (sameShape && changedNodes.empty()) return false;  // short-circuit

  state.refresh(rates, window, changedNodes);
  state.k_ = k;
  // The batch greedy pass over the cached probabilities (same doubles, same
  // iteration order => identical picks and tie-breaks).
  greedyNcls(CachedProbs{state.index_, state.probs_, state.defaultP_}, k, state.notCovered_,
             state.isChosen_, state.scratchNcls_);

  const bool changed = !state.primed_ || state.scratchNcls_ != state.ncls_;
  state.ncls_.swap(state.scratchNcls_);
  state.primed_ = true;
  return changed;
}

}  // namespace dtncache::cache
