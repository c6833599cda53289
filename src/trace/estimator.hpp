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
/// Estimates, snapshots, stats and changed-node lists are identical in
/// both layouts: snapshots default never-met pairs to priorRate and write
/// observed pairs only.

#include <cstdint>
#include <vector>

#include "core/dense_bitset.hpp"
#include "sim/time.hpp"
#include "trace/contact.hpp"
#include "trace/pair_index.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::trace {

/// What an in-place snapshot actually did (see
/// ContactRateEstimator::snapshotInto).
struct SnapshotStats {
  /// Pairs the incremental path re-evaluated this snapshot: the dirty list
  /// (touched by recordContact since the last snapshot) plus the
  /// time-varying list (pairs whose estimate depends on `now` even without
  /// new contacts). A full/first snapshot reports the whole triangle
  /// (never-met pairs are trivially re-evaluated to the prior, so both
  /// layouts report the same number).
  std::size_t dirtyPairs = 0;
  /// Pairs whose written value actually differs from the previous snapshot.
  std::size_t changedPairs = 0;
};

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

  /// Incrementally refresh `out` in place so it equals `snapshot(now)`
  /// bit-for-bit, rewriting only pairs that can have changed since the last
  /// snapshotInto call: pairs touched by recordContact (the dirty list) and
  /// pairs whose estimate is a function of `now` (the time-varying list —
  /// e.g. every seen pair under kCumulative, single-contact pairs under
  /// kEwma, pairs with live window contents under kSlidingWindow). Each
  /// rewritten entry is recomputed by the exact same rate() evaluation a
  /// full snapshot performs, so incremental and full snapshots are
  /// bit-identical; untouched entries are provably stable in `now`.
  ///
  /// `changedNodes`, when non-null, receives the ascending list of node ids
  /// with at least one changed row entry. With `force` every pair is
  /// rewritten (same values, same stats, same changedNodes — the
  /// full-recompute escape hatch), and the dirty/time-varying bookkeeping
  /// advances identically.
  ///
  /// The first call (or a call after a node-count, layout or default-rate
  /// mismatch) resizes `out` and performs a full rewrite. The dirty list is
  /// consumed by the call, so the incremental contract holds for a single
  /// target matrix only. Steady-state calls allocate nothing once the bookkeeping is warm.
  SnapshotStats snapshotInto(RateMatrix& out, sim::SimTime now,
                             std::vector<NodeId>* changedNodes = nullptr,
                             bool force = false);

  /// Pairs currently on the dirty list (touched since the last snapshotInto).
  std::size_t dirtyPairCount() const { return dirtyKeys_.size(); }

  /// Pairs currently tracked as time-varying (re-evaluated every snapshot).
  std::size_t timeVaryingPairCount() const { return varyingKeys_.size(); }

  /// Pairs with at least one observed contact.
  std::size_t observedPairCount() const;

  /// Pair estimates snapshotInto has recomputed over this estimator's
  /// lifetime: the dirty + time-varying batch on an incremental pass, every
  /// observed pair on a full or forced rewrite. SnapshotStats::dirtyPairs
  /// reports a forced rewrite as the incremental count (so counters match
  /// under the escape hatch); this is the work actually done.
  std::size_t pairsEvaluated() const { return pairsEvaluated_; }

  std::size_t nodeCount() const { return nodeCount_; }
  bool isSparse() const { return index_.isSparse(); }
  const EstimatorConfig& config() const { return config_; }

  /// Sharded-kernel support (runner/shard_driver). Between enterShardMode
  /// and exitShardMode, recordContact may run on worker threads — distinct
  /// pairs concurrently; cross-thread ordering comes from the driver's
  /// epoch protocol, never from this class. Two things change:
  ///  - pair creation is disabled: every pair appearing in
  ///    `contacts[first, end)` is inserted here (in trace order), so
  ///    workers never grow the pair table or the adjacency rows. Inserted
  ///    pairs that never record a contact (e.g. churn-suppressed) stay
  ///    invisible: every read path skips totalCount == 0 state.
  ///  - dirty marking goes to a per-context sink, each entry tagged with the
  ///    recording event's (time, sequence) key from sim::tlsShard.
  /// drainShardDirty(), called by the coordinator with workers quiescent,
  /// merges the sinks in tag order into the regular dirty list — the exact
  /// single-threaded first-touch order, which matters because it fixes the
  /// sparse snapshot's insertion order and therefore downstream FP sums.
  void enterShardMode(std::size_t contexts, const std::vector<Contact>& contacts,
                      std::size_t first, std::size_t end);
  void drainShardDirty();
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

  /// Slot of a packed pair key (pairs on the dirty/varying lists always
  /// exist).
  std::uint32_t slotOfKey(std::uint64_t key) const;

  /// Estimate for a pair slot (PairIndex::kNoSlot reads as priorRate).
  double rateOf(std::uint32_t idx, sim::SimTime now) const;

  /// count / elapsed since the estimator's start, priorRate before it.
  double cumulativeRate(std::size_t count, sim::SimTime now) const {
    const double elapsed = now - startTime_;
    return elapsed > 0.0 ? static_cast<double>(count) / elapsed : config_.priorRate;
  }

  /// Evaluate rates for every pair in batchIdx_ into batchVal_, using the
  /// gathered contiguous columns (batchCount_/batchEwma_) so the per-mode
  /// arithmetic runs as a straight-line loop over doubles instead of a
  /// hash-probe + mode-switch per pair. Exactly the rateOf() expressions —
  /// results are bit-identical. kSlidingWindow needs the per-pair recent
  /// row and stays scalar.
  void evaluateBatch(sim::SimTime now);

  /// True when this pair's estimate no longer depends on `now` — it will
  /// return the same value at every later time until a new contact arrives.
  /// Per mode: kCumulative is never stable once seen (count / elapsed);
  /// kSlidingWindow is stable once the last contact has left the window
  /// (priorRate from then on); kEwma is stable once an inter-contact
  /// interval exists (1 / ewma), unstable on the single-contact cumulative
  /// fallback.
  bool rateStable(const PairState& s, sim::SimTime now) const;

  std::size_t nodeCount_;
  EstimatorConfig config_;
  sim::SimTime startTime_;

  PairIndex index_;
  std::vector<PairState> pairs_;  ///< slot -> state

  /// Per-pair recent contact times (kSlidingWindow only; rows are pruned
  /// via PairState::recentStart and compacted amortized-O(1)). Indexed by
  /// slot, like pairs_.
  std::vector<std::vector<sim::SimTime>> recent_;

  /// Incremental-snapshot bookkeeping: dedup'd packed-pair lists, with
  /// membership bits over the pair slots. `dirty` = touched by
  /// recordContact since the last snapshotInto (one bit test + rare push on
  /// the contact hot path);
  /// `varying` = seen pairs whose estimate still depends on `now`,
  /// recompacted at each snapshot.
  core::DenseBitset dirtyBits_;
  std::vector<std::uint64_t> dirtyKeys_;
  core::DenseBitset varyingBits_;
  std::vector<std::uint64_t> varyingKeys_;
  core::DenseBitset changedRowBits_;  ///< per-snapshot scratch, node ids
  bool snapshotPrimed_ = false;
  std::size_t pairsEvaluated_ = 0;

  /// snapshotInto's data-oriented scratch: the incremental pass gathers
  /// (key, slot) for the dirty + time-varying lists once, lifts the fields
  /// the mode needs into contiguous columns, evaluates, then
  /// compare-and-scatters. Members (not locals) so steady-state snapshots
  /// stay allocation-free.
  std::vector<std::uint64_t> batchKeys_;
  std::vector<std::uint32_t> batchIdx_;
  std::vector<double> batchCount_;
  std::vector<double> batchEwma_;
  std::vector<double> batchVal_;

  /// Shard mode: per-context dirty sink (selected by sim::tlsShard). `bits`
  /// dedups within the sink between drains; entries carry the event key the
  /// drain sorts by.
  struct ShardSink {
    struct Entry {
      sim::SimTime t;
      std::uint64_t seq;
      std::uint32_t idx;
      std::uint64_t key;
    };
    core::DenseBitset bits;
    std::vector<Entry> entries;
  };
  bool shardMode_ = false;
  std::vector<ShardSink> shardSinks_;
  std::vector<ShardSink::Entry> drainScratch_;
};

}  // namespace dtncache::trace
