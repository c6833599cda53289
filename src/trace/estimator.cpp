#include "trace/estimator.hpp"

#include <algorithm>

#include "core/pair_key.hpp"
#include "sim/assert.hpp"
#include "sim/shard_context.hpp"

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
  dirtyBits_ = core::DenseBitset(pairs_.size());
  varyingBits_ = core::DenseBitset(pairs_.size());
  changedRowBits_ = core::DenseBitset(nodeCount);
}

std::uint32_t ContactRateEstimator::insertPair(NodeId a, NodeId b) {
  const std::uint32_t idx = index_.insert(a, b);
  if (idx == pairs_.size()) {
    pairs_.emplace_back();
    if (config_.mode == EstimatorMode::kSlidingWindow) recent_.emplace_back();
  }
  return idx;
}

std::uint32_t ContactRateEstimator::slotOfKey(std::uint64_t key) const {
  const std::uint32_t idx = index_.find(core::pairHigh(key), core::pairLow(key));
  DTNCACHE_CHECK(idx != PairIndex::kNoSlot);
  return idx;
}

void ContactRateEstimator::recordContact(NodeId a, NodeId b, sim::SimTime t) {
  std::uint32_t idx;
  if (shardMode_) {
    // Workers never create state: the pair was pre-created by
    // enterShardMode. Dirty marking goes to this context's sink, tagged
    // with the recording event's key for the drain-time merge.
    idx = index_.find(a, b);
    DTNCACHE_CHECK(idx != PairIndex::kNoSlot);
    ShardSink& sink = shardSinks_[sim::tlsShard.ctx];
    if (sink.bits.set(idx))
      sink.entries.push_back(ShardSink::Entry{sim::tlsShard.evTime, sim::tlsShard.evSeq,
                                              idx, core::packSymmetricPair(a, b)});
  } else {
    idx = insertPair(a, b);
    if (dirtyBits_.set(idx)) dirtyKeys_.push_back(core::packSymmetricPair(a, b));
  }
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

bool ContactRateEstimator::rateStable(const PairState& s, sim::SimTime now) const {
  if (s.totalCount == 0) return true;  // priorRate forever until a contact
  switch (config_.mode) {
    case EstimatorMode::kCumulative:
      return false;  // count / elapsed shrinks as `now` advances
    case EstimatorMode::kSlidingWindow:
      // Once the last contact has left the window the estimate is priorRate
      // at every later time; while anything is in the window the count (and
      // possibly the span) still depends on `now`.
      return s.lastContact < now - config_.window;
    case EstimatorMode::kEwma:
      // 1 / ewma is time-free; the single-contact fallback is cumulative.
      return s.ewmaInterval > 0.0;
  }
  return false;
}

void ContactRateEstimator::evaluateBatch(sim::SimTime now) {
  const std::size_t n = batchIdx_.size();
  batchVal_.resize(n);
  if (n == 0) return;
  const double prior = config_.priorRate;
  if (config_.mode == EstimatorMode::kSlidingWindow) {
    // Window membership walks the per-pair recent row — stays scalar.
    for (std::size_t k = 0; k < n; ++k) batchVal_[k] = rateOf(batchIdx_[k], now);
    return;
  }
  batchCount_.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    batchCount_[k] = static_cast<double>(pairs_[batchIdx_[k]].totalCount);
  const double elapsed = now - startTime_;
  if (config_.mode == EstimatorMode::kCumulative) {
    // rateOf: totalCount == 0 or elapsed <= 0 -> prior, else count / elapsed.
    if (elapsed <= 0.0) {
      std::fill(batchVal_.begin(), batchVal_.end(), prior);
      return;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const double c = batchCount_[k];
      batchVal_[k] = c == 0.0 ? prior : c / elapsed;
    }
    return;
  }
  // kEwma: 1 / ewma, with rateOf's single-contact cumulative fallback.
  batchEwma_.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    batchEwma_[k] = pairs_[batchIdx_[k]].ewmaInterval;
  for (std::size_t k = 0; k < n; ++k) {
    const double c = batchCount_[k];
    const double e = batchEwma_[k];
    batchVal_[k] = c == 0.0        ? prior
                   : e > 0.0       ? 1.0 / e
                   : elapsed > 0.0 ? c / elapsed
                                   : prior;
  }
}

SnapshotStats ContactRateEstimator::snapshotInto(RateMatrix& out, sim::SimTime now,
                                                 std::vector<NodeId>* changedNodes,
                                                 bool force) {
  if (out.nodeCount() != nodeCount_ || out.layout() != index_.layout() ||
      out.defaultRate() != config_.priorRate) {
    out = RateMatrix(nodeCount_, index_.layout(), config_.priorRate);
    snapshotPrimed_ = false;
  }
  SnapshotStats stats;
  if (!snapshotPrimed_) {
    // The whole triangle, computed arithmetically: the full pass touches
    // observed pairs only (never-met entries are trivially "re-evaluated"
    // to the prior the matrix already reads).
    stats.dirtyPairs = PairIndex::triangleSize(nodeCount_);
  } else if (force) {
    // A forced full rewrite still reports the LOGICAL dirty count — what the
    // incremental pass would have re-evaluated — so the full-recompute
    // escape hatch stays counter-identical to the incremental engine (the
    // IncrementalMaintenance equivalence tests diff this).
    stats.dirtyPairs = dirtyKeys_.size();
    for (const std::uint64_t key : varyingKeys_)
      if (!dirtyBits_.test(slotOfKey(key))) ++stats.dirtyPairs;
  }

  changedRowBits_.clear();
  const auto updatePair = [&](NodeId i, NodeId j, double v) {
    if (v != out.rate(i, j)) {
      out.setRate(i, j, v);
      ++stats.changedPairs;
      changedRowBits_.set(i);
      changedRowBits_.set(j);
    }
  };

  if (force || !snapshotPrimed_) {
    // Full rewrite, in the canonical row-major order. Entries outside the
    // dirty/varying lists compare equal to their stored value, so stats and
    // changedNodes match what the incremental pass would have produced.
    // Zero-count pairs evaluate to the prior the matrix already reads by
    // default, so skipping them changes no value, stat, or changedNodes.
    for (NodeId i = 0; i < nodeCount_; ++i)
      index_.forEachNeighbor(i, [&](NodeId j, std::uint32_t idx) {
        if (j > i && pairs_[idx].totalCount > 0) {
          ++pairsEvaluated_;
          updatePair(i, j, rateOf(idx, now));
        }
      });
  } else {
    // Data-oriented incremental pass. Gather (key, slot) for the dirty
    // list then the non-dirty time-varying list — the same pair order
    // the scalar loop used — lift the state fields into contiguous columns,
    // evaluate the mode arithmetic over them, and compare-and-scatter the
    // results. The per-pair work in the middle loop is pure double math the
    // compiler can vectorize; the hash probe happens once per pair here
    // instead of inside every rate() call.
    batchKeys_.clear();
    batchIdx_.clear();
    for (const std::uint64_t key : dirtyKeys_) {
      batchKeys_.push_back(key);
      batchIdx_.push_back(slotOfKey(key));
    }
    for (const std::uint64_t key : varyingKeys_) {
      const std::uint32_t idx = slotOfKey(key);
      if (!dirtyBits_.test(idx)) {
        batchKeys_.push_back(key);
        batchIdx_.push_back(idx);
      }
    }
    stats.dirtyPairs = batchKeys_.size();
    pairsEvaluated_ += batchKeys_.size();
    evaluateBatch(now);
    for (std::size_t k = 0; k < batchKeys_.size(); ++k)
      updatePair(core::pairHigh(batchKeys_[k]), core::pairLow(batchKeys_[k]), batchVal_[k]);
  }

  // Advance the bookkeeping: compact the time-varying list in place, then
  // fold in dirty pairs that are still time-dependent. Both loops reuse the
  // existing vectors — steady-state snapshots allocate nothing.
  std::size_t kept = 0;
  for (const std::uint64_t key : varyingKeys_) {
    const std::uint32_t idx = slotOfKey(key);
    if (rateStable(pairs_[idx], now))
      varyingBits_.reset(idx);
    else
      varyingKeys_[kept++] = key;
  }
  varyingKeys_.resize(kept);
  for (const std::uint64_t key : dirtyKeys_) {
    const std::uint32_t idx = slotOfKey(key);
    dirtyBits_.reset(idx);
    if (!rateStable(pairs_[idx], now) && varyingBits_.set(idx))
      varyingKeys_.push_back(key);
  }
  dirtyKeys_.clear();
  snapshotPrimed_ = true;

  if (changedNodes != nullptr) {
    changedNodes->clear();
    if (stats.changedPairs > 0)
      for (NodeId n = 0; n < nodeCount_; ++n)
        if (changedRowBits_.test(n)) changedNodes->push_back(n);
  }
  return stats;
}

void ContactRateEstimator::enterShardMode(std::size_t contexts,
                                          const std::vector<Contact>& contacts,
                                          std::size_t first, std::size_t end) {
  DTNCACHE_CHECK(!shardMode_);
  DTNCACHE_CHECK(contexts >= 1 && first <= end && end <= contacts.size());
  // Insert every pair the run can touch, in trace order — the same
  // first-sight order lazy creation would use, so the adjacency rows and
  // slot layout match a plain run on the delivered subset (zero-count
  // extras are skipped by every read path).
  for (std::size_t c = first; c < end; ++c) insertPair(contacts[c].a, contacts[c].b);
  shardSinks_.resize(contexts);
  for (ShardSink& sink : shardSinks_) {
    sink.bits = core::DenseBitset(pairs_.size());
    sink.entries.clear();
  }
  shardMode_ = true;
}

void ContactRateEstimator::drainShardDirty() {
  bool any = false;
  for (const ShardSink& sink : shardSinks_)
    if (!sink.entries.empty()) {
      any = true;
      break;
    }
  if (!any) return;
  drainScratch_.clear();
  for (ShardSink& sink : shardSinks_) {
    drainScratch_.insert(drainScratch_.end(), sink.entries.begin(), sink.entries.end());
    for (const ShardSink::Entry& e : sink.entries) sink.bits.reset(e.idx);
    sink.entries.clear();
  }
  // One entry per recording event, and an event runs on exactly one
  // context, so keys never tie: sorting by (t, seq) is the total
  // single-threaded recording order.
  std::sort(drainScratch_.begin(), drainScratch_.end(),
            [](const ShardSink::Entry& a, const ShardSink::Entry& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  for (const ShardSink::Entry& e : drainScratch_)
    if (dirtyBits_.set(e.idx)) dirtyKeys_.push_back(e.key);
}

void ContactRateEstimator::exitShardMode() {
  DTNCACHE_CHECK(shardMode_);
  drainShardDirty();
  shardSinks_.clear();
  shardMode_ = false;
}

}  // namespace dtncache::trace
