#include "trace/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"
#include "trace/generators.hpp"

namespace dtncache::trace {
namespace {

TEST(Estimator, UnseenPairUsesPrior) {
  EstimatorConfig cfg;
  cfg.priorRate = 0.001;
  ContactRateEstimator e(5, cfg);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 0.001);
}

TEST(Estimator, DefaultPriorIsZero) {
  ContactRateEstimator e(5, {});
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 0.0);
}

TEST(Estimator, CumulativeIsCountOverElapsed) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 10.0);
  e.recordContact(0, 1, 20.0);
  e.recordContact(1, 0, 90.0);  // symmetric pair key
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 3.0 / 100.0);
  EXPECT_DOUBLE_EQ(e.rate(1, 0, 100.0), 3.0 / 100.0);
}

TEST(Estimator, CumulativeRespectsStartTime) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(4, cfg, -100.0);  // pre-fed warm-up history
  e.recordContact(0, 1, -50.0);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 1.0 / 200.0);
}

TEST(Estimator, SlidingWindowForgetsOldContacts) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kSlidingWindow;
  cfg.window = 100.0;
  ContactRateEstimator e(4, cfg, 0.0);
  for (int i = 0; i < 10; ++i) e.recordContact(0, 1, 10.0 * i);
  // At t=150, only contacts in [50, 150] remain: t=50,60,70,80,90 → 5.
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 150.0), 5.0 / 100.0);
  // Far in the future everything is forgotten; falls back to prior (0).
  e.recordContact(2, 3, 1000.0);  // trigger pruning on another pair only
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 10000.0), 0.0);
}

TEST(Estimator, SlidingWindowEarlyPhaseUsesElapsedSpan) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kSlidingWindow;
  cfg.window = 1000.0;
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 10.0);
  e.recordContact(0, 1, 20.0);
  // Only 50s of history exists; divide by 50, not the 1000s window.
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 50.0), 2.0 / 50.0);
}

TEST(Estimator, EwmaTracksIntervals) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kEwma;
  cfg.ewmaAlpha = 1.0;  // newest interval only
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 100.0);
  e.recordContact(0, 1, 150.0);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 200.0), 1.0 / 50.0);
  e.recordContact(0, 1, 160.0);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 200.0), 1.0 / 10.0);
}

TEST(Estimator, EwmaSingleContactFallsBackToCumulative) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kEwma;
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 50.0);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 1.0 / 100.0);
}

TEST(Estimator, SnapshotMatchesPointQueries) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(5, cfg, 0.0);
  e.recordContact(0, 1, 10.0);
  e.recordContact(2, 4, 20.0);
  const auto m = e.snapshot(100.0);
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = i + 1; j < 5; ++j) EXPECT_DOUBLE_EQ(m.rate(i, j), e.rate(i, j, 100.0));
}

TEST(Estimator, ConvergesToTrueRateOnSyntheticTrace) {
  // Feed a long homogeneous trace; cumulative estimates must converge to
  // the generator's ground truth.
  const auto world = generate(homogeneousConfig(8, 4.0, sim::days(60), 3));
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(8, cfg, 0.0);
  for (const auto& c : world.trace.contacts()) e.recordContact(c.a, c.b, c.start);
  const double horizon = sim::days(60);
  double truth = world.rates.rate(0, 1);
  double sumRel = 0.0;
  int pairs = 0;
  for (NodeId i = 0; i < 8; ++i)
    for (NodeId j = i + 1; j < 8; ++j) {
      sumRel += e.rate(i, j, horizon) / truth;
      ++pairs;
    }
  EXPECT_NEAR(sumRel / pairs, 1.0, 0.05);
}

TEST(Estimator, MeetingProbabilityUsesEstimate) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 50.0);
  const double r = e.rate(0, 1, 100.0);
  EXPECT_DOUBLE_EQ(e.meetingProbability(0, 1, 30.0, 100.0), contactProbability(r, 30.0));
}

// ---- Incremental snapshot (snapshotInto) -----------------------------------

/// All three estimation modes, for mode-parameterized equivalence tests.
std::vector<EstimatorConfig> allModeConfigs() {
  EstimatorConfig cumulative;
  cumulative.mode = EstimatorMode::kCumulative;
  EstimatorConfig window;
  window.mode = EstimatorMode::kSlidingWindow;
  window.window = 500.0;  // short, so contacts age out mid-test
  EstimatorConfig ewma;
  ewma.mode = EstimatorMode::kEwma;
  return {cumulative, window, ewma};
}

/// Every entry bit-identical (EXPECT_EQ is exact comparison, not ULP-near).
void expectBitIdentical(const RateMatrix& a, const RateMatrix& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (NodeId i = 0; i < a.nodeCount(); ++i)
    for (NodeId j = i + 1; j < a.nodeCount(); ++j)
      ASSERT_EQ(a.rate(i, j), b.rate(i, j)) << "pair (" << i << "," << j << ")";
}

TEST(EstimatorSnapshot, IncrementalMatchesFullOnRandomStreamsAllModes) {
  // Random contact streams interleaved with snapshots; after every snapshot
  // the incrementally maintained matrix must equal a from-scratch
  // snapshot() bit for bit, in every mode. This is the core contract the
  // incremental maintenance engine rests on.
  constexpr NodeId kNodes = 14;
  for (const auto& cfg : allModeConfigs()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ContactRateEstimator e(kNodes, cfg, 0.0);
      RateMatrix m;
      sim::Rng rng(seed * 77);
      double now = 0.0;
      for (int round = 0; round < 40; ++round) {
        const int burst = static_cast<int>(rng.uniformInt(0, 6));
        for (int c = 0; c < burst; ++c) {
          const NodeId a = static_cast<NodeId>(rng.uniformInt(0, kNodes - 1));
          NodeId b = static_cast<NodeId>(rng.uniformInt(0, kNodes - 2));
          if (b >= a) ++b;
          now += rng.uniform(0.0, 30.0);
          e.recordContact(a, b, now);
        }
        now += rng.uniform(1.0, 200.0);  // idle gaps let window pairs expire
        e.snapshotInto(m, now);
        expectBitIdentical(m, e.snapshot(now));
      }
    }
  }
}

TEST(EstimatorSnapshot, BatchedIncrementalMatchesFullOnSparseBackend) {
  // Same contract as above but with the sparse pair backend forced, so the
  // gathered-column batch evaluation (and its per-pair slot probes) is
  // exercised against hash-indexed state in every mode.
  constexpr NodeId kNodes = 16;
  for (auto cfg : allModeConfigs()) {
    cfg.backend = PairBackend::kSparse;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      ContactRateEstimator e(kNodes, cfg, 0.0);
      ASSERT_TRUE(e.isSparse());
      RateMatrix m;
      sim::Rng rng(seed * 31 + 5);
      double now = 0.0;
      for (int round = 0; round < 30; ++round) {
        const int burst = static_cast<int>(rng.uniformInt(0, 5));
        for (int c = 0; c < burst; ++c) {
          const NodeId a = static_cast<NodeId>(rng.uniformInt(0, kNodes - 1));
          NodeId b = static_cast<NodeId>(rng.uniformInt(0, kNodes - 2));
          if (b >= a) ++b;
          now += rng.uniform(0.0, 25.0);
          e.recordContact(a, b, now);
        }
        now += rng.uniform(1.0, 180.0);
        const auto stats = e.snapshotInto(m, now);
        expectBitIdentical(m, e.snapshot(now));
        // The batch covers exactly the dirty + still-time-varying pairs.
        EXPECT_LE(stats.changedPairs, stats.dirtyPairs);
      }
    }
  }
}

TEST(EstimatorSnapshot, ForceRewriteIsObservationallyIdentical) {
  // The full-recompute escape hatch (force=true) must produce the same
  // matrix, the same changed-node lists, and the same changedPairs count as
  // the incremental path — only dirtyPairs (work done) may differ.
  constexpr NodeId kNodes = 10;
  for (const auto& cfg : allModeConfigs()) {
    ContactRateEstimator inc(kNodes, cfg, 0.0);
    ContactRateEstimator full(kNodes, cfg, 0.0);
    RateMatrix mInc, mFull;
    std::vector<NodeId> changedInc, changedFull;
    sim::Rng rng(99);
    double now = 0.0;
    for (int round = 0; round < 25; ++round) {
      const int burst = static_cast<int>(rng.uniformInt(0, 4));
      for (int c = 0; c < burst; ++c) {
        const NodeId a = static_cast<NodeId>(rng.uniformInt(0, kNodes - 1));
        NodeId b = static_cast<NodeId>(rng.uniformInt(0, kNodes - 2));
        if (b >= a) ++b;
        now += rng.uniform(0.0, 20.0);
        inc.recordContact(a, b, now);
        full.recordContact(a, b, now);
      }
      now += rng.uniform(1.0, 150.0);
      const auto sInc = inc.snapshotInto(mInc, now, &changedInc, /*force=*/false);
      const auto sFull = full.snapshotInto(mFull, now, &changedFull, /*force=*/true);
      expectBitIdentical(mInc, mFull);
      EXPECT_EQ(changedInc, changedFull);
      EXPECT_EQ(sInc.changedPairs, sFull.changedPairs);
    }
  }
}

TEST(EstimatorSnapshot, ChangedNodesListsExactlyTheRowsThatMoved) {
  constexpr NodeId kNodes = 12;
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kEwma;
  ContactRateEstimator e(kNodes, cfg, 0.0);
  RateMatrix m;
  RateMatrix previous;
  std::vector<NodeId> changed;
  sim::Rng rng(7);
  double now = 0.0;
  e.snapshotInto(m, now, &changed);  // prime
  for (int round = 0; round < 30; ++round) {
    previous = m;
    const int burst = static_cast<int>(rng.uniformInt(0, 3));
    for (int c = 0; c < burst; ++c) {
      const NodeId a = static_cast<NodeId>(rng.uniformInt(0, kNodes - 1));
      NodeId b = static_cast<NodeId>(rng.uniformInt(0, kNodes - 2));
      if (b >= a) ++b;
      now += rng.uniform(0.0, 10.0);
      e.recordContact(a, b, now);
    }
    now += rng.uniform(1.0, 100.0);
    e.snapshotInto(m, now, &changed);
    // Recompute the ground truth: rows whose entries differ from before.
    std::vector<NodeId> expected;
    for (NodeId i = 0; i < kNodes; ++i) {
      bool moved = false;
      for (NodeId j = 0; j < kNodes && !moved; ++j)
        if (j != i && m.rate(i, j) != previous.rate(i, j)) moved = true;
      if (moved) expected.push_back(i);
    }
    EXPECT_EQ(changed, expected) << "round " << round;
    EXPECT_TRUE(std::is_sorted(changed.begin(), changed.end()));
  }
}

TEST(EstimatorSnapshot, QuiescentEwmaSnapshotTouchesNothing) {
  // Every pair has >= 2 contacts (rate = 1/ewma, independent of `now`), so
  // after one snapshot consumes the dirty list, further snapshots must do
  // zero work and report zero change — the skip condition the maintenance
  // tick's short-circuit relies on.
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kEwma;
  ContactRateEstimator e(6, cfg, 0.0);
  for (NodeId i = 0; i < 6; ++i)
    for (NodeId j = i + 1; j < 6; ++j) {
      e.recordContact(i, j, 10.0 * (i + j));
      e.recordContact(i, j, 10.0 * (i + j) + 100.0);
    }
  RateMatrix m;
  std::vector<NodeId> changed;
  e.snapshotInto(m, 1000.0, &changed);
  EXPECT_FALSE(changed.empty());
  for (double now : {2000.0, 3000.0, 50000.0}) {
    const auto stats = e.snapshotInto(m, now, &changed);
    EXPECT_EQ(stats.dirtyPairs, 0u);
    EXPECT_EQ(stats.changedPairs, 0u);
    EXPECT_TRUE(changed.empty());
    expectBitIdentical(m, e.snapshot(now));
  }
}

TEST(EstimatorSnapshot, DirtyListDedupsAndDrainsOnSnapshot) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kEwma;
  ContactRateEstimator e(5, cfg, 0.0);
  EXPECT_EQ(e.dirtyPairCount(), 0u);
  e.recordContact(0, 1, 10.0);
  e.recordContact(1, 0, 20.0);  // same pair, symmetric key: no second entry
  EXPECT_EQ(e.dirtyPairCount(), 1u);
  e.recordContact(2, 3, 30.0);
  EXPECT_EQ(e.dirtyPairCount(), 2u);
  RateMatrix m;
  e.snapshotInto(m, 100.0);
  EXPECT_EQ(e.dirtyPairCount(), 0u);
  // (0,1) has an interval (stable under kEwma); (2,3) is single-contact and
  // falls back to cumulative, so it stays on the time-varying list.
  EXPECT_EQ(e.timeVaryingPairCount(), 1u);
}

TEST(EstimatorSnapshot, CumulativeKeepsAllSeenPairsTimeVarying) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(5, cfg, 0.0);
  e.recordContact(0, 1, 10.0);
  e.recordContact(2, 3, 20.0);
  RateMatrix m;
  e.snapshotInto(m, 100.0);
  EXPECT_EQ(e.timeVaryingPairCount(), 2u);  // count/elapsed moves every tick
  const auto stats = e.snapshotInto(m, 200.0);
  EXPECT_EQ(stats.changedPairs, 2u);
  expectBitIdentical(m, e.snapshot(200.0));
}

TEST(EstimatorSnapshot, SteadyStateSnapshotWorkIsExact) {
  // The maintenance steady state: a warm 200-node EWMA estimator absorbs
  // 16 random contacts per 10-minute tick, then re-materializes its matrix.
  // An incremental snapshot re-evaluates only the touched pairs; a forced
  // rewrite would evaluate the whole 19,900-pair triangle every time (while
  // still reporting the incremental dirtyPairs, so only pairsEvaluated()
  // can tell the two apart).
  constexpr NodeId kNodes = 200;
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kEwma;
  ContactRateEstimator e(kNodes, cfg, 0.0);
  // Two contacts per pair make every pair EWMA-stable (interval known), so
  // steady-state dirtiness comes only from the per-tick contacts below.
  for (NodeId i = 0; i < kNodes; ++i)
    for (NodeId j = i + 1; j < kNodes; ++j) {
      e.recordContact(i, j, 10.0 * (i + 1));
      e.recordContact(i, j, 10.0 * (i + 1) + sim::hours(1));
    }
  RateMatrix m(kNodes);
  double now = sim::days(1);
  e.snapshotInto(m, now);  // prime: a full rewrite
  EXPECT_EQ(e.pairsEvaluated(), PairIndex::triangleSize(kNodes));

  sim::Rng rng(17);
  std::size_t dirty = 0;
  std::size_t changed = 0;
  for (int k = 0; k < 500; ++k) {
    for (int c = 0; c < 16; ++c) {
      const NodeId a = static_cast<NodeId>(rng.uniformInt(0, kNodes - 1));
      NodeId b = static_cast<NodeId>(rng.uniformInt(0, kNodes - 2));
      if (b >= a) ++b;
      e.recordContact(a, b, now);
    }
    now += sim::minutes(10);
    const SnapshotStats stats = e.snapshotInto(m, now);
    dirty += stats.dirtyPairs;
    changed += stats.changedPairs;
  }
  // 500 ticks x 16 contacts, one pair drawn twice within a tick.
  EXPECT_EQ(dirty, 7999u);
  EXPECT_EQ(changed, 7999u);
  EXPECT_EQ(e.pairsEvaluated(), PairIndex::triangleSize(kNodes) + dirty);
}

TEST(Estimator, InvalidConfigThrows) {
  EstimatorConfig cfg;
  cfg.ewmaAlpha = 0.0;
  EXPECT_THROW(ContactRateEstimator(4, cfg), InvariantViolation);
  EstimatorConfig cfg2;
  cfg2.window = 0.0;
  EXPECT_THROW(ContactRateEstimator(4, cfg2), InvariantViolation);
}

}  // namespace
}  // namespace dtncache::trace
