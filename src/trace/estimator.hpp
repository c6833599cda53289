#pragma once

/// \file estimator.hpp
/// Online estimation of pairwise contact rates from observed contacts.
///
/// Nodes in the paper's scheme do not know the true λ_ij; each maintains an
/// estimate from its own contact history (and from histories gossiped on
/// contact — the simulation feeds every observed contact of a pair into one
/// shared estimator per run, which models the paper's metadata exchange
/// without simulating the gossip bytes; the bytes are accounted as control
/// overhead by the protocol layer).
///
/// Three estimation modes:
///  - kCumulative: MLE over the whole history, count / elapsed. Converges to
///    the truth, slow to track change.
///  - kSlidingWindow: count in the last W seconds / W. The window length is
///    the knob of the F9 estimator-sensitivity ablation.
///  - kEwma: exponentially weighted mean of inter-contact intervals,
///    rate = 1 / ewma. Reacts fastest, noisiest.
///
/// Pair state is a PairIndex (trace/pair_index.hpp: dense triangle at paper
/// scale, observed pairs only at large N) plus one PairState per slot.
/// Estimates and snapshots are identical in both layouts: snapshots default
/// never-met pairs to priorRate and write observed pairs only.

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "trace/contact.hpp"
#include "trace/pair_index.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::trace {

enum class EstimatorMode { kCumulative, kSlidingWindow, kEwma };

struct EstimatorConfig {
  EstimatorMode mode = EstimatorMode::kCumulative;
  sim::SimTime window = sim::days(7);  ///< kSlidingWindow only
  double ewmaAlpha = 0.3;              ///< kEwma only: weight of the newest interval
  /// Rate assumed for a pair never seen (0 disables such pairs entirely;
  /// a small floor keeps "no information yet" pairs selectable early on).
  double priorRate = 0.0;
  /// Pair-state layout: dense triangle, sparse observed-pair table, or
  /// size-based auto selection (trace/pair_index.hpp).
  PairBackend backend = PairBackend::kAuto;

  bool operator==(const EstimatorConfig&) const = default;
};

class ContactRateEstimator {
 public:
  /// `nodeCount` may be 0 or 1 (degenerate estimators with no pairs).
  ContactRateEstimator(std::size_t nodeCount, EstimatorConfig config,
                       sim::SimTime startTime = 0.0);

  /// Feed one observed contact (call at its start time).
  void recordContact(NodeId a, NodeId b, sim::SimTime t);

  /// Current estimate of λ_ij given observations up to `now`. The contact
  /// path probes it for every forwarding decision, so the default
  /// cumulative mode is answered inline; the other modes go out of line.
  double rate(NodeId i, NodeId j, sim::SimTime now) const {
    if (i == j) return 0.0;
    const std::uint32_t idx = index_.find(i, j);
    if (config_.mode != EstimatorMode::kCumulative) return rateOf(idx, now);
    if (idx == PairIndex::kNoSlot || pairs_[idx].totalCount == 0) return config_.priorRate;
    return cumulativeRate(pairs_[idx].totalCount, now);
  }

  /// P(i meets j within `window` of `now`) under the current estimate.
  double meetingProbability(NodeId i, NodeId j, sim::SimTime window,
                            sim::SimTime now) const;

  /// Snapshot all estimates into a RateMatrix (for centrality computation).
  /// The matrix uses the estimator's layout with `priorRate` as its default
  /// rate; observed pairs are written in ascending (i, j) order.
  RateMatrix snapshot(sim::SimTime now) const;

  /// Pairs with at least one observed contact.
  std::size_t observedPairCount() const;

  std::size_t nodeCount() const { return nodeCount_; }
  bool isSparse() const { return index_.isSparse(); }
  const EstimatorConfig& config() const { return config_; }

  /// Sharded-kernel support (runner/shard_driver). Between enterShardMode
  /// and exitShardMode, recordContact may run on worker threads — distinct
  /// pairs concurrently; cross-thread ordering comes from the driver's
  /// epoch protocol, never from this class. Pair creation is disabled:
  /// every pair appearing in `contacts[first, end)` is inserted here (in
  /// trace order), so workers never grow the pair table or the adjacency
  /// rows. Inserted pairs that never record a contact (e.g.
  /// churn-suppressed) stay invisible: every read path skips
  /// totalCount == 0 state.
  void enterShardMode(const std::vector<Contact>& contacts, std::size_t first,
                      std::size_t end);
  void exitShardMode();

 private:
  /// One per pair slot. The estimator is probed for every forwarding
  /// decision at every contact (rate() is by far its hottest entry point),
  /// so in the dense layout a lookup is one branch plus one indexed load.
  struct PairState {
    std::size_t totalCount = 0;
    sim::SimTime lastContact = sim::kNever;
    double ewmaInterval = 0.0;   ///< 0 = uninitialized
    std::uint32_t recentStart = 0;  ///< live prefix offset into recent_ row
  };

  /// Slot of pair {a, b}, created with its state on first sight.
  std::uint32_t insertPair(NodeId a, NodeId b);

  /// Estimate for a pair slot (PairIndex::kNoSlot reads as priorRate).
  double rateOf(std::uint32_t idx, sim::SimTime now) const;

  /// count / elapsed since the estimator's start, priorRate before it.
  double cumulativeRate(std::size_t count, sim::SimTime now) const {
    const double elapsed = now - startTime_;
    return elapsed > 0.0 ? static_cast<double>(count) / elapsed : config_.priorRate;
  }

  std::size_t nodeCount_;
  EstimatorConfig config_;
  sim::SimTime startTime_;

  PairIndex index_;
  std::vector<PairState> pairs_;  ///< slot -> state

  /// Per-pair recent contact times (kSlidingWindow only; rows are pruned
  /// via PairState::recentStart and compacted amortized-O(1)). Indexed by
  /// slot, like pairs_.
  std::vector<std::vector<sim::SimTime>> recent_;

  bool shardMode_ = false;
};

}  // namespace dtncache::trace
