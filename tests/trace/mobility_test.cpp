/// Streamed synthetic mobility (trace/mobility.hpp): determinism, stream
/// ordering, materialize/stream equivalence, sparsity, and rate targets.

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"
#include "trace/estimator.hpp"
#include "trace/mobility.hpp"
#include "trace/pair_index.hpp"
#include "trace/trace_cache.hpp"

namespace dtncache {
namespace {

using trace::RateModel;
using trace::SyntheticMobility;
using trace::SyntheticTraceConfig;

SyntheticTraceConfig smallConfig(RateModel model, std::uint64_t seed = 9) {
  SyntheticTraceConfig c = trace::mobilityConfig(300, seed);
  c.model = model;
  c.duration = sim::days(2);
  c.meanDegree = 12.0;
  return c;
}

TEST(SyntheticMobility, StreamIsDeterministicAndOrdered) {
  const auto config = smallConfig(RateModel::kMobilityCommunity);
  SyntheticMobility a(config);
  SyntheticMobility b(config);
  EXPECT_EQ(a.edgeCount(), b.edgeCount());
  trace::Contact ca;
  trace::Contact cb;
  sim::SimTime last = 0.0;
  std::size_t count = 0;
  while (a.next(ca)) {
    ASSERT_TRUE(b.next(cb));
    EXPECT_EQ(ca.a, cb.a);
    EXPECT_EQ(ca.b, cb.b);
    EXPECT_EQ(ca.start, cb.start);
    EXPECT_EQ(ca.duration, cb.duration);
    EXPECT_GE(ca.start, last);  // nondecreasing
    EXPECT_LT(ca.start, config.duration);
    last = ca.start;
    ++count;
  }
  EXPECT_FALSE(b.next(cb));
  EXPECT_GT(count, 0u);
}

TEST(SyntheticMobility, MaterializeMatchesStream) {
  const auto config = smallConfig(RateModel::kMobilityCommunity);
  SyntheticMobility streamer(config);
  const auto materialized = SyntheticMobility(config).materialize();

  trace::Contact c;
  std::size_t i = 0;
  while (streamer.next(c)) {
    ASSERT_LT(i, materialized.trace.contacts().size());
    const trace::Contact& m = materialized.trace.contacts()[i++];
    EXPECT_EQ(c.a, m.a);
    EXPECT_EQ(c.b, m.b);
    EXPECT_EQ(c.start, m.start);
  }
  EXPECT_EQ(i, materialized.trace.contacts().size());
  EXPECT_EQ(materialized.trace.nodeCount(), config.nodeCount);
  EXPECT_EQ(materialized.community.size(), config.nodeCount);
}

TEST(SyntheticMobility, GenerateDelegatesToMobility) {
  const auto config = smallConfig(RateModel::kMobilityCommunity);
  const auto viaGenerate = trace::generate(config);
  const auto direct = SyntheticMobility(config).materialize();
  ASSERT_EQ(viaGenerate.trace.contacts().size(), direct.trace.contacts().size());
  for (std::size_t i = 0; i < direct.trace.contacts().size(); ++i)
    EXPECT_EQ(viaGenerate.trace.contacts()[i].start, direct.trace.contacts()[i].start);
  // And the memoizing path keys on the mobility fields too.
  trace::clearTraceCache();
  const auto shared1 = trace::generateShared(config);
  auto tweaked = config;
  tweaked.meanDegree += 1.0;
  const auto shared2 = trace::generateShared(tweaked);
  EXPECT_NE(shared1->trace.contacts().size(), shared2->trace.contacts().size());
}

TEST(SyntheticMobility, GraphIsSparseAndRatesNormalized) {
  const auto config = smallConfig(RateModel::kMobilityCommunity);
  SyntheticMobility m(config);
  const std::size_t n = config.nodeCount;
  // Sparsity: edges ≈ n * meanDegree / 2, a tiny fraction of the triangle.
  EXPECT_LT(m.pairSparsity(), 0.2);
  EXPECT_GT(m.edgeCount(), n);  // but not degenerate
  EXPECT_LT(static_cast<double>(m.edgeCount()), 1.2 * static_cast<double>(n) * config.meanDegree / 2.0);

  // Ground-truth mean rate over linked pairs hits the configured target.
  const auto rates = m.groundTruthRates();
  ASSERT_TRUE(rates.isSparse());
  EXPECT_EQ(rates.observedPairCount(), m.edgeCount());
  double sum = 0.0;
  for (NodeId i = 0; i < n; ++i) rates.forEachNeighbor(i, [&](NodeId, double r) { sum += r; });
  sum /= 2.0;  // each pair counted from both endpoints
  const double meanPerDay =
      sum / static_cast<double>(m.edgeCount()) * sim::days(1);
  EXPECT_NEAR(meanPerDay, config.meanContactsPerPairPerDay,
              0.05 * config.meanContactsPerPairPerDay);
}

TEST(SyntheticMobility, LargeNEstimatorStaysObservedPairSized) {
  // 20k nodes under the auto layout: the estimator and its snapshot matrix
  // must scale with observed pairs. A dense fallback would hold the whole
  // ~2e8-pair triangle.
  constexpr std::size_t kNodes = 20'000;
  // Checked before anything is built: a dense estimator at this size would
  // allocate gigabytes before the first contact.
  ASSERT_TRUE(trace::useSparsePairs(kNodes, trace::PairBackend::kAuto));

  auto config = trace::mobilityConfig(kNodes, 2);
  config.duration = sim::days(1);
  SyntheticMobility stream(config);
  trace::EstimatorConfig ecfg;
  ecfg.mode = trace::EstimatorMode::kEwma;
  trace::ContactRateEstimator est(kNodes, ecfg, 0.0);
  ASSERT_TRUE(est.isSparse());
  trace::PairIndex seen(kNodes, trace::PairBackend::kSparse);
  trace::Contact c;
  sim::SimTime now = 0.0;
  std::size_t contacts = 0;
  while (stream.next(c)) {
    est.recordContact(c.a, c.b, c.start);
    seen.insert(c.a, c.b);
    now = c.start;
    ++contacts;
  }
  EXPECT_EQ(contacts, 30553u);
  EXPECT_EQ(seen.slotCount(), 25826u);
  EXPECT_EQ(est.observedPairCount(), seen.slotCount());

  const trace::RateMatrix m = est.snapshot(now);
  ASSERT_TRUE(m.isSparse());
  EXPECT_EQ(m.observedPairCount(), seen.slotCount());
}

TEST(SyntheticMobility, CommunityModelPrefersIntraCommunityEdges) {
  auto config = smallConfig(RateModel::kMobilityCommunity);
  config.interCommunityFraction = 0.05;
  SyntheticMobility m(config);
  const auto& community = m.community();
  ASSERT_EQ(community.size(), config.nodeCount);
  const auto rates = m.groundTruthRates();
  std::size_t intra = 0;
  std::size_t inter = 0;
  for (NodeId i = 0; i < config.nodeCount; ++i) {
    rates.forEachNeighbor(i, [&](NodeId j, double) {
      if (community[i] == community[j])
        ++intra;
      else
        ++inter;
    });
  }
  EXPECT_GT(intra, 5 * inter);
}

TEST(SyntheticMobility, PowerLawGapsKeepTheMeanRate) {
  auto config = smallConfig(RateModel::kMobilityPowerLaw, 17);
  config.duration = sim::days(30);
  config.meanContactsPerPairPerDay = 2.0;
  config.interContactAlpha = 2.5;
  SyntheticMobility m(config);
  EXPECT_TRUE(m.community().empty());
  std::size_t contacts = 0;
  trace::Contact c;
  while (m.next(c)) ++contacts;
  // Long-run contact volume ≈ edges × rate × duration even with Pareto gaps
  // (the per-edge scale is chosen for mean gap = 1/λ). Generous tolerance:
  // heavy tails converge slowly.
  const double expected = static_cast<double>(m.edgeCount()) *
                          config.meanContactsPerPairPerDay *
                          sim::toDays(config.duration);
  EXPECT_NEAR(static_cast<double>(contacts), expected, 0.15 * expected);
}

TEST(SyntheticMobility, SeedChangesTheTrace) {
  const auto a = SyntheticMobility(smallConfig(RateModel::kMobilityCommunity, 1)).materialize();
  const auto b = SyntheticMobility(smallConfig(RateModel::kMobilityCommunity, 2)).materialize();
  EXPECT_NE(a.trace.contacts().size(), b.trace.contacts().size());
}

}  // namespace
}  // namespace dtncache
