/// Cross-layout equivalence: the sparse pair layout must be bit-identical
/// to the dense triangle on every derived quantity when the default
/// (never-met) rate is 0 — the contract stated in trace/pair_index.hpp.
/// Randomized contact histories drive both layouts through the same API
/// calls and compare raw doubles with ==, not tolerances: byte-equality of
/// sweep outputs is the acceptance bar.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "cache/centrality.hpp"
#include "trace/estimator.hpp"
#include "trace/generators.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache {
namespace {

using trace::ContactRateEstimator;
using trace::EstimatorConfig;
using trace::EstimatorMode;
using trace::PairBackend;
using trace::PairIndex;
using trace::RateMatrix;

/// Deterministic pseudo-random contact history over n nodes: returns
/// (a, b, t) triples with strictly increasing t and skewed pair usage.
std::vector<trace::Contact> randomHistory(std::size_t n, std::size_t count,
                                          std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<trace::Contact> out;
  out.reserve(count);
  sim::SimTime t = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    t += rng.exponential(1.0 / 600.0);
    trace::Contact c;
    // Square the draw to skew toward low ids (hub-like reuse of few pairs).
    const double ua = rng.uniform();
    const double ub = rng.uniform();
    c.a = static_cast<NodeId>(ua * ua * static_cast<double>(n));
    c.b = static_cast<NodeId>(ub * ub * static_cast<double>(n));
    if (c.a >= n) c.a = static_cast<NodeId>(n - 1);
    if (c.b >= n) c.b = static_cast<NodeId>(n - 1);
    if (c.a == c.b) c.b = static_cast<NodeId>((c.b + 1) % n);
    c.start = t;
    c.duration = 60.0;
    out.push_back(c);
  }
  return out;
}

TEST(SparseEquivalence, PairIndexLayoutsAgree) {
  const std::size_t n = 29;
  PairIndex dense(n, PairBackend::kDense);
  PairIndex sparse(n, PairBackend::kSparse);
  ASSERT_FALSE(dense.isSparse());
  ASSERT_TRUE(sparse.isSparse());
  const std::size_t triangle = n * (n - 1) / 2;
  EXPECT_EQ(dense.slotCount(), triangle);
  EXPECT_EQ(sparse.slotCount(), 0u);

  // Random inserts, repeats included; a fresh sparse pair gets the next slot.
  std::set<std::pair<NodeId, NodeId>> inserted;
  sim::Rng rng(13);
  for (std::size_t k = 0; k < 150; ++k) {
    const NodeId i = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    NodeId j = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    if (i == j) j = static_cast<NodeId>((j + 1) % n);
    EXPECT_EQ(dense.insert(i, j), dense.find(j, i));
    const std::size_t before = sparse.slotCount();
    const bool fresh = inserted.insert(std::minmax(i, j)).second;
    const std::uint32_t slot = sparse.insert(i, j);
    if (fresh) {
      EXPECT_EQ(slot, before);
    }
    EXPECT_EQ(sparse.slotCount(), before + (fresh ? 1 : 0));
    EXPECT_EQ(slot, sparse.find(j, i));
  }
  EXPECT_EQ(dense.slotCount(), triangle);  // inserting never adds a dense slot
  EXPECT_EQ(sparse.slotCount(), inserted.size());

  // find: the dense slot is the row-major triangular index; the sparse one
  // exists exactly for inserted pairs; both are symmetric.
  std::uint32_t tri = 0;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j, ++tri) {
      EXPECT_EQ(dense.find(i, j), tri);
      EXPECT_EQ(dense.find(j, i), tri);
      const bool stored = inserted.count({i, j}) > 0;
      EXPECT_EQ(sparse.find(i, j) != PairIndex::kNoSlot, stored) << i << "," << j;
      EXPECT_EQ(sparse.find(i, j), sparse.find(j, i));
    }

  // forEachNeighbor: ascending j with the slot find() returns, and the
  // sparse walk is the dense walk restricted to inserted pairs.
  for (NodeId i = 0; i < n; ++i) {
    std::vector<NodeId> denseRow;
    std::vector<NodeId> restricted;
    dense.forEachNeighbor(i, [&](NodeId j, std::uint32_t slot) {
      EXPECT_EQ(slot, dense.find(i, j));
      denseRow.push_back(j);
      if (inserted.count(std::minmax(i, j)) > 0) restricted.push_back(j);
    });
    std::vector<NodeId> sparseRow;
    sparse.forEachNeighbor(i, [&](NodeId j, std::uint32_t slot) {
      EXPECT_EQ(slot, sparse.find(i, j));
      sparseRow.push_back(j);
    });
    EXPECT_EQ(denseRow.size(), n - 1);
    EXPECT_EQ(std::adjacent_find(denseRow.begin(), denseRow.end(), std::greater_equal<>()),
              denseRow.end());
    EXPECT_EQ(std::adjacent_find(sparseRow.begin(), sparseRow.end(), std::greater_equal<>()),
              sparseRow.end());
    EXPECT_EQ(sparseRow, restricted) << "node " << i;
  }
}

TEST(SparseEquivalence, RateMatrixLookupsAndSums) {
  const std::size_t n = 37;
  RateMatrix dense(n, PairBackend::kDense);
  RateMatrix sparse(n, PairBackend::kSparse);
  ASSERT_FALSE(dense.isSparse());
  ASSERT_TRUE(sparse.isSparse());

  sim::Rng rng(7);
  for (std::size_t k = 0; k < 200; ++k) {
    const NodeId i = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    NodeId j = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    if (i == j) j = static_cast<NodeId>((j + 1) % n);
    const double r = rng.uniform(0.0, 1e-3);
    dense.setRate(i, j, r);
    sparse.setRate(i, j, r);
  }

  for (NodeId i = 0; i < n; ++i) {
    // Neighbor sums: the sparse walk skips only 0.0 terms.
    double denseSum = 0.0;
    double sparseSum = 0.0;
    dense.forEachNeighbor(i, [&](NodeId, double r) { denseSum += r; });
    sparse.forEachNeighbor(i, [&](NodeId, double r) { sparseSum += r; });
    EXPECT_EQ(denseSum, sparseSum) << "node " << i;
    for (NodeId j = 0; j < n; ++j) {
      EXPECT_EQ(dense.rate(i, j), sparse.rate(i, j));
      EXPECT_EQ(dense.meetingProbability(i, j, sim::hours(6)),
                sparse.meetingProbability(i, j, sim::hours(6)));
    }
  }
  EXPECT_LT(sparse.observedPairCount(), dense.observedPairCount());
}

TEST(SparseEquivalence, FitFromTraceIdentical) {
  auto config = trace::homogeneousConfig(24, 1.5, sim::days(3), 11);
  const auto synth = trace::generate(config);
  const RateMatrix dense = RateMatrix::fitFromTrace(synth.trace, PairBackend::kDense);
  const RateMatrix sparse = RateMatrix::fitFromTrace(synth.trace, PairBackend::kSparse);
  const std::size_t n = synth.trace.nodeCount();
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) EXPECT_EQ(dense.rate(i, j), sparse.rate(i, j));
}

/// Both layouts fed the same history: rates, snapshots and observed-pair
/// counts must agree exactly, for any prior.
void expectEstimatorLayoutsAgree(EstimatorMode mode, double priorRate) {
  const std::size_t n = 25;
  EstimatorConfig cfg;
  cfg.mode = mode;
  cfg.window = sim::hours(12);
  cfg.priorRate = priorRate;

  EstimatorConfig denseCfg = cfg;
  denseCfg.backend = PairBackend::kDense;
  EstimatorConfig sparseCfg = cfg;
  sparseCfg.backend = PairBackend::kSparse;
  ContactRateEstimator dense(n, denseCfg);
  ContactRateEstimator sparse(n, sparseCfg);
  ASSERT_FALSE(dense.isSparse());
  ASSERT_TRUE(sparse.isSparse());

  const auto history = randomHistory(n, 600, 0xfeedULL + static_cast<int>(mode));
  std::size_t fed = 0;
  for (std::size_t round = 1; round <= 6; ++round) {
    const std::size_t until = history.size() * round / 6;
    sim::SimTime now = 0.0;
    for (; fed < until; ++fed) {
      dense.recordContact(history[fed].a, history[fed].b, history[fed].start);
      sparse.recordContact(history[fed].a, history[fed].b, history[fed].start);
      now = history[fed].start;
    }
    now += 1.0;

    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        EXPECT_EQ(dense.rate(i, j, now), sparse.rate(i, j, now));

    EXPECT_EQ(dense.observedPairCount(), sparse.observedPairCount()) << "round " << round;
    const RateMatrix denseOut = dense.snapshot(now);
    const RateMatrix sparseOut = sparse.snapshot(now);
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        EXPECT_EQ(denseOut.rate(i, j), sparseOut.rate(i, j));
  }
}

class SparseEstimatorEquivalence : public ::testing::TestWithParam<EstimatorMode> {};

TEST_P(SparseEstimatorEquivalence, RatesSnapshotsAndStatsMatch) {
  expectEstimatorLayoutsAgree(GetParam(), 0.0);
  expectEstimatorLayoutsAgree(GetParam(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllModes, SparseEstimatorEquivalence,
                         ::testing::Values(EstimatorMode::kCumulative,
                                           EstimatorMode::kSlidingWindow,
                                           EstimatorMode::kEwma));

/// Centrality over a dense and a sparse matrix holding the same rates must
/// agree exactly, for any default rate.
void expectCentralityLayoutsAgree(double defaultRate) {
  const std::size_t n = 31;
  const sim::SimTime window = sim::hours(6);
  RateMatrix dense(n, PairBackend::kDense, defaultRate);
  RateMatrix sparse(n, PairBackend::kSparse, defaultRate);
  sim::Rng rng(21);
  for (std::size_t k = 0; k < 150; ++k) {
    const NodeId i = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    NodeId j = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    if (i == j) j = static_cast<NodeId>((j + 1) % n);
    const double r = rng.uniform(0.0, 2e-4);
    dense.setRate(i, j, r);
    sparse.setRate(i, j, r);
  }

  EXPECT_EQ(cache::contactCapability(dense, window), cache::contactCapability(sparse, window));
  for (std::size_t k : {1u, 3u, 5u}) {
    EXPECT_EQ(cache::selectTopCapability(dense, window, k),
              cache::selectTopCapability(sparse, window, k));
    EXPECT_EQ(cache::selectNcls(dense, window, k), cache::selectNcls(sparse, window, k));
  }
}

TEST(SparseEquivalence, CentralityBatchAndIncremental) {
  expectCentralityLayoutsAgree(0.0);
  expectCentralityLayoutsAgree(1e-5);
}

TEST(SparseEquivalence, DegenerateSizes) {
  // n = 0 and n = 1 matrices and estimators are valid and inert.
  for (const auto backend : {PairBackend::kDense, PairBackend::kSparse}) {
    RateMatrix zero(0, backend);
    EXPECT_EQ(zero.nodeCount(), 0u);
    EXPECT_EQ(zero.observedPairCount(), 0u);

    RateMatrix one(1, backend);
    EXPECT_EQ(one.nodeCount(), 1u);
    EXPECT_EQ(one.rate(0, 0), 0.0);
    std::size_t neighbors = 0;
    one.forEachNeighbor(0, [&](NodeId, double) { ++neighbors; });
    EXPECT_EQ(neighbors, 0u);

    EstimatorConfig cfg;
    cfg.backend = backend;
    ContactRateEstimator est(1, cfg);
    const RateMatrix out = est.snapshot(sim::hours(1));
    EXPECT_EQ(out.nodeCount(), 1u);
    EXPECT_EQ(out.observedPairCount(), 0u);

    ContactRateEstimator empty(0, cfg);
    EXPECT_EQ(empty.observedPairCount(), 0u);
  }
  // fitFromTrace on an empty single-node trace.
  const trace::ContactTrace empty(1, {});
  const RateMatrix fit = RateMatrix::fitFromTrace(empty);
  EXPECT_EQ(fit.nodeCount(), 1u);
}

}  // namespace
}  // namespace dtncache
