#include "trace/estimator.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace dtncache::trace {

ContactRateEstimator::ContactRateEstimator(std::size_t nodeCount, EstimatorConfig config,
                                           sim::SimTime startTime)
    : nodeCount_(nodeCount),
      config_(config),
      startTime_(startTime),
      index_(nodeCount, config.backend) {
  DTNCACHE_CHECK(config.window > 0.0);
  DTNCACHE_CHECK(config.ewmaAlpha > 0.0 && config.ewmaAlpha <= 1.0);
  DTNCACHE_CHECK(config.priorRate >= 0.0);
  pairs_.resize(index_.slotCount());
  if (config.mode == EstimatorMode::kSlidingWindow) recent_.resize(pairs_.size());
}

std::uint32_t ContactRateEstimator::insertPair(NodeId a, NodeId b) {
  const std::uint32_t idx = index_.insert(a, b);
  if (idx == pairs_.size()) {
    pairs_.emplace_back();
    if (config_.mode == EstimatorMode::kSlidingWindow) recent_.emplace_back();
  }
  return idx;
}

void ContactRateEstimator::recordContact(NodeId a, NodeId b, sim::SimTime t) {
  // Shard-mode workers never create state: the pair was pre-created by
  // enterShardMode.
  const std::uint32_t idx = shardMode_ ? index_.find(a, b) : insertPair(a, b);
  DTNCACHE_CHECK(idx != PairIndex::kNoSlot);
  PairState& s = pairs_[idx];
  ++s.totalCount;
  if (s.lastContact != sim::kNever) {
    const double interval = t - s.lastContact;
    if (interval > 0.0) {
      s.ewmaInterval = s.ewmaInterval == 0.0
                           ? interval
                           : config_.ewmaAlpha * interval +
                                 (1.0 - config_.ewmaAlpha) * s.ewmaInterval;
    }
  }
  s.lastContact = t;
  if (config_.mode == EstimatorMode::kSlidingWindow) {
    auto& recent = recent_[idx];
    recent.push_back(t);
    while (s.recentStart < recent.size() && recent[s.recentStart] < t - config_.window)
      ++s.recentStart;
    // Compact once the dead prefix dominates, keeping appends amortized O(1).
    if (s.recentStart > recent.size() / 2 && s.recentStart > 16) {
      recent.erase(recent.begin(), recent.begin() + s.recentStart);
      s.recentStart = 0;
    }
  }
}

double ContactRateEstimator::rateOf(std::uint32_t idx, sim::SimTime now) const {
  if (idx == PairIndex::kNoSlot) return config_.priorRate;
  const PairState* s = &pairs_[idx];
  if (s->totalCount == 0) return config_.priorRate;

  switch (config_.mode) {
    case EstimatorMode::kCumulative:
      return cumulativeRate(s->totalCount, now);
    case EstimatorMode::kSlidingWindow: {
      // Count contacts inside the window ending at `now`; the row is
      // pruned relative to the *recording* times, so prune again here.
      const auto& recent = recent_[idx];
      std::size_t inWindow = 0;
      for (std::size_t k = recent.size(); k > s->recentStart; --k) {
        const sim::SimTime at = recent[k - 1];
        if (at < now - config_.window) break;
        if (at <= now) ++inWindow;
      }
      const double span = std::min(config_.window, now - startTime_);
      if (span <= 0.0) return config_.priorRate;
      if (inWindow == 0) return config_.priorRate;
      return static_cast<double>(inWindow) / span;
    }
    case EstimatorMode::kEwma: {
      if (s->ewmaInterval <= 0.0) {
        // Only one contact so far: fall back to the cumulative estimate.
        return cumulativeRate(s->totalCount, now);
      }
      return 1.0 / s->ewmaInterval;
    }
  }
  return config_.priorRate;
}

double ContactRateEstimator::meetingProbability(NodeId i, NodeId j, sim::SimTime window,
                                                sim::SimTime now) const {
  return contactProbability(rate(i, j, now), window);
}

std::size_t ContactRateEstimator::observedPairCount() const {
  // Pairs with at least one recorded contact: the dense triangle and
  // shard-mode pre-creation both hold zero-count state.
  std::size_t n = 0;
  for (const PairState& s : pairs_)
    if (s.totalCount > 0) ++n;
  return n;
}

RateMatrix ContactRateEstimator::snapshot(sim::SimTime now) const {
  // Observed pairs only, in canonical (i, ascending j) order; never-met
  // pairs — including zero-count state — read as the matrix's default rate
  // (== priorRate), which is exactly what rate() returns for them.
  RateMatrix m(nodeCount_, index_.layout(), config_.priorRate);
  for (NodeId i = 0; i < nodeCount_; ++i)
    index_.forEachNeighbor(i, [&](NodeId j, std::uint32_t idx) {
      if (j > i && pairs_[idx].totalCount > 0) m.setRate(i, j, rateOf(idx, now));
    });
  return m;
}

void ContactRateEstimator::enterShardMode(const std::vector<Contact>& contacts,
                                          std::size_t first, std::size_t end) {
  DTNCACHE_CHECK(!shardMode_);
  DTNCACHE_CHECK(first <= end && end <= contacts.size());
  // Insert every pair the run can touch, in trace order — the same
  // first-sight order lazy creation would use, so the adjacency rows and
  // slot layout match a plain run on the delivered subset (zero-count
  // extras are skipped by every read path).
  for (std::size_t c = first; c < end; ++c) insertPair(contacts[c].a, contacts[c].b);
  shardMode_ = true;
}

void ContactRateEstimator::exitShardMode() {
  DTNCACHE_CHECK(shardMode_);
  shardMode_ = false;
}

}  // namespace dtncache::trace
