#include "cache/centrality.hpp"

#include <algorithm>
#include <numeric>

#include "sim/assert.hpp"

namespace dtncache::cache {
namespace {

/// Meeting probabilities of one rate matrix over one window.
struct Probs {
  const trace::RateMatrix& rates;
  sim::SimTime window;
  double defaultP;  ///< P for pairs the matrix does not store
};

Probs probsOf(const trace::RateMatrix& rates, sim::SimTime window) {
  return {rates, window, trace::contactProbability(rates.defaultRate(), window)};
}

/// f(j, P(i meets j)) in ascending j for every j != i whose P can be
/// nonzero: the stored pairs when the default P is 0 (skipping exact 0.0
/// terms changes no sum, product or comparison), every j otherwise.
template <typename F>
void forEachMeeting(const Probs& probs, NodeId i, F&& f) {
  if (probs.defaultP == 0.0) {
    probs.rates.forEachNeighbor(
        i, [&](NodeId j, double r) { f(j, trace::contactProbability(r, probs.window)); });
    return;
  }
  const std::size_t n = probs.rates.nodeCount();
  for (NodeId j = 0; j < n; ++j)
    if (j != i) f(j, probs.rates.meetingProbability(i, j, probs.window));
}

double capabilityOf(const Probs& probs, NodeId i) {
  const std::size_t n = probs.rates.nodeCount();
  double sum = 0.0;
  forEachMeeting(probs, i, [&](NodeId, double p) { sum += p; });
  return n > 1 ? sum / static_cast<double>(n - 1) : 0.0;
}

}  // namespace

std::vector<double> contactCapability(const trace::RateMatrix& rates, sim::SimTime window) {
  DTNCACHE_CHECK(window > 0.0);
  const Probs probs = probsOf(rates, window);
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
  const Probs probs = probsOf(rates, window);
  const std::size_t n = rates.nodeCount();
  k = std::min(k, n);
  std::vector<NodeId> chosen;
  // notCovered[j] = P(no chosen NCL meets j within the window).
  std::vector<double> notCovered(n, 1.0);
  std::vector<char> isChosen(n, 0);
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
  return chosen;
}

}  // namespace dtncache::cache
