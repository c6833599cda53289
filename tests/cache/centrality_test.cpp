#include "cache/centrality.hpp"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace dtncache::cache
