#include "cache/centrality.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"

namespace dtncache::cache {
namespace {

/// Star topology: node 0 meets everyone, the rest only meet node 0.
trace::RateMatrix star(std::size_t n, double hubRate) {
  trace::RateMatrix m(n);
  for (NodeId j = 1; j < n; ++j) m.setRate(0, j, hubRate);
  return m;
}

TEST(Centrality, HubHasHighestCapability) {
  const auto m = star(10, 0.01);
  const auto cap = contactCapability(m, 100.0);
  for (NodeId j = 1; j < 10; ++j) EXPECT_GT(cap[0], cap[j]);
}

TEST(Centrality, CapabilityIsMeanMeetingProbability) {
  trace::RateMatrix m(3);
  m.setRate(0, 1, 0.01);
  m.setRate(0, 2, 0.02);
  const auto cap = contactCapability(m, 100.0);
  const double expected =
      (trace::contactProbability(0.01, 100.0) + trace::contactProbability(0.02, 100.0)) / 2.0;
  EXPECT_NEAR(cap[0], expected, 1e-12);
}

TEST(Centrality, TopCapabilityOrdersByMetric) {
  trace::RateMatrix m(4);
  m.setRate(0, 1, 0.001);
  m.setRate(2, 0, 0.05);
  m.setRate(2, 1, 0.05);
  m.setRate(2, 3, 0.05);
  const auto top = selectTopCapability(m, 100.0, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 2u);
}

TEST(Centrality, SelectNclsReturnsRequestedCount) {
  const auto m = star(10, 0.01);
  EXPECT_EQ(selectNcls(m, 100.0, 3).size(), 3u);
  EXPECT_EQ(selectNcls(m, 100.0, 20).size(), 10u);  // clamped to n
}

TEST(Centrality, SelectNclsPicksHubFirst) {
  const auto m = star(10, 0.01);
  const auto ncls = selectNcls(m, 100.0, 4);
  EXPECT_EQ(ncls[0], 0u);
}

TEST(Centrality, GreedyAvoidsRedundantCoverage) {
  // Two communities {0,1,2} and {3,4,5}; 0 and 1 both cover community A
  // fully, 3 covers community B. Raw top-2 would pick 0 and 1 (both high
  // capability); greedy must pick one node from each community.
  trace::RateMatrix m(6);
  const double hi = 1.0;  // near-certain contact within the window
  m.setRate(0, 1, hi);
  m.setRate(0, 2, hi);
  m.setRate(1, 2, hi * 0.99);
  m.setRate(3, 4, hi * 0.5);
  m.setRate(3, 5, hi * 0.5);
  const auto ncls = selectNcls(m, 10.0, 2);
  ASSERT_EQ(ncls.size(), 2u);
  const bool coversA = ncls[0] <= 2 || ncls[1] <= 2;
  const bool coversB = ncls[0] >= 3 || ncls[1] >= 3;
  EXPECT_TRUE(coversA);
  EXPECT_TRUE(coversB);
}

TEST(Centrality, DeterministicUnderTies) {
  trace::RateMatrix m(5);  // all-zero rates: every node ties
  const auto a = selectNcls(m, 100.0, 3);
  const auto b = selectNcls(m, 100.0, 3);
  EXPECT_EQ(a, b);
}

// ---- Incremental CentralityState -------------------------------------------

trace::RateMatrix randomMatrix(std::size_t n, sim::Rng& rng) {
  trace::RateMatrix m(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.6)) m.setRate(i, j, rng.uniform(0.0, 0.05));
  return m;
}

TEST(CentralityState, IncrementalMatchesBatchUnderRandomRowUpdates) {
  // Mutate random rows between refreshes; the incrementally maintained
  // capability vector and NCL set must stay bit-identical to the batch
  // functions at every step — the equivalence the maintenance tick's
  // NCL change-detection rests on.
  constexpr std::size_t kNodes = 16;
  constexpr double kWindow = 600.0;
  constexpr std::size_t kK = 4;
  sim::Rng rng(42);
  auto m = randomMatrix(kNodes, rng);
  CentralityState state;
  std::vector<NodeId> changed;
  bool moved = selectNcls(state, m, kWindow, kK, changed);
  EXPECT_TRUE(moved);  // first call on an unprimed state always reports true
  for (int round = 0; round < 40; ++round) {
    changed.clear();
    const int rows = static_cast<int>(rng.uniformInt(0, 3));
    for (int r = 0; r < rows; ++r) {
      const NodeId i = static_cast<NodeId>(rng.uniformInt(0, kNodes - 1));
      NodeId j = static_cast<NodeId>(rng.uniformInt(0, kNodes - 2));
      if (j >= i) ++j;
      m.setRate(i, j, rng.uniform(0.0, 0.05));
      changed.push_back(i);
      changed.push_back(j);
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

    const auto previous = state.ncls();
    moved = selectNcls(state, m, kWindow, kK, changed);
    const auto batchCap = contactCapability(m, kWindow);
    const auto& incCap = state.capability();
    ASSERT_EQ(incCap.size(), batchCap.size());
    for (std::size_t i = 0; i < batchCap.size(); ++i)
      ASSERT_EQ(incCap[i], batchCap[i]) << "node " << i << " round " << round;
    EXPECT_EQ(state.ncls(), selectNcls(m, kWindow, kK)) << "round " << round;
    EXPECT_EQ(moved, state.ncls() != previous) << "round " << round;
  }
}

TEST(CentralityState, NoChangeShortCircuitReportsStableSet) {
  const auto m = star(10, 0.01);
  CentralityState state;
  std::vector<NodeId> none;
  EXPECT_TRUE(selectNcls(state, m, 100.0, 3, none));
  const auto first = state.ncls();
  // Primed + empty change list: skipped outright, nothing moved.
  EXPECT_FALSE(selectNcls(state, m, 100.0, 3, none));
  EXPECT_EQ(state.ncls(), first);
}

TEST(CentralityState, ParameterChangeForcesFullRederivation) {
  sim::Rng rng(5);
  const auto m = randomMatrix(12, rng);
  CentralityState state;
  std::vector<NodeId> none;
  selectNcls(state, m, 100.0, 3, none);
  // A different window invalidates every cached probability even with an
  // empty change list.
  selectNcls(state, m, 900.0, 3, none);
  EXPECT_EQ(state.ncls(), selectNcls(m, 900.0, 3));
  // Same for a different k...
  selectNcls(state, m, 900.0, 5, none);
  EXPECT_EQ(state.ncls(), selectNcls(m, 900.0, 5));
  // ...and an explicit invalidate() must rebuild to the same answer.
  state.invalidate();
  EXPECT_FALSE(state.primed());
  selectNcls(state, m, 900.0, 5, none);
  EXPECT_EQ(state.ncls(), selectNcls(m, 900.0, 5));
}

TEST(CentralityState, IncrementalCapabilityOverloadMatchesBatch) {
  sim::Rng rng(11);
  auto m = randomMatrix(10, rng);
  CentralityState state;
  std::vector<NodeId> changed;
  const auto& cap = contactCapability(state, m, 200.0, changed);
  EXPECT_EQ(cap, contactCapability(m, 200.0));
  m.setRate(2, 7, 0.04);
  changed = {2, 7};
  const auto& cap2 = contactCapability(state, m, 200.0, changed);
  EXPECT_EQ(cap2, contactCapability(m, 200.0));

  // A different sparse matrix of the same shape that no longer stores pair
  // (2, 7): reporting both endpoints must drop the cached probability.
  trace::RateMatrix before(10, trace::PairBackend::kSparse);
  before.setRate(1, 3, 0.02);
  before.setRate(2, 7, 0.04);
  trace::RateMatrix after(10, trace::PairBackend::kSparse);
  after.setRate(1, 3, 0.02);
  CentralityState sparseState;
  contactCapability(sparseState, before, 200.0, {});
  EXPECT_EQ(contactCapability(sparseState, after, 200.0, changed),
            contactCapability(after, 200.0));
}

}  // namespace
}  // namespace dtncache::cache
