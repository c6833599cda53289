#include "trace/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

namespace dtncache::trace {
namespace {

TEST(Generators, DeterministicInSeed) {
  const auto cfg = homogeneousConfig(10, 2.0, sim::days(3), 5);
  const auto a = generate(cfg);
  const auto b = generate(cfg);
  ASSERT_EQ(a.trace.contacts().size(), b.trace.contacts().size());
  for (std::size_t i = 0; i < a.trace.contacts().size(); ++i)
    EXPECT_DOUBLE_EQ(a.trace.contacts()[i].start, b.trace.contacts()[i].start);
}

TEST(Generators, DifferentSeedsProduceDifferentTraces) {
  auto cfg = homogeneousConfig(10, 2.0, sim::days(3), 5);
  const auto a = generate(cfg);
  cfg.seed = 6;
  const auto b = generate(cfg);
  EXPECT_NE(a.trace.contacts().size(), b.trace.contacts().size());
}

TEST(Generators, HomogeneousDensityMatchesTarget) {
  // 20 nodes, 190 pairs, 3 contacts/pair/day over 20 days → E=11400 contacts.
  const auto cfg = homogeneousConfig(20, 3.0, sim::days(20), 1);
  const auto t = generate(cfg);
  const double perPairPerDay = static_cast<double>(t.trace.contacts().size()) / 190.0 / 20.0;
  EXPECT_NEAR(perPairPerDay, 3.0, 0.15);
}

TEST(Generators, GroundTruthRatesMatchEmpirical) {
  const auto cfg = homogeneousConfig(10, 5.0, sim::days(30), 2);
  const auto t = generate(cfg);
  // Every pair shares the same ground-truth rate; empirical counts should
  // agree within sampling noise.
  const double truth = t.rates.rate(0, 1);
  EXPECT_GT(truth, 0.0);
  double empSum = 0.0;
  std::size_t pairs = 0;
  for (NodeId i = 0; i < 10; ++i)
    for (NodeId j = i + 1; j < 10; ++j) {
      empSum += t.trace.pairRate(i, j);
      ++pairs;
    }
  EXPECT_NEAR(empSum / static_cast<double>(pairs), truth, truth * 0.1);
}

TEST(Generators, DiurnalSuppressesNightContacts) {
  auto cfg = homogeneousConfig(20, 4.0, sim::days(10), 3);
  cfg.diurnal = true;
  cfg.nightActivity = 0.05;
  const auto t = generate(cfg);
  std::size_t night = 0;
  std::size_t day = 0;
  for (const auto& c : t.trace.contacts()) {
    const double hour = std::fmod(sim::toHours(c.start), 24.0);
    if (hour < 4.0 || hour >= 20.0) ++night; else ++day;
  }
  // Night block is 8/24 of the day but carries only ~5% activity.
  EXPECT_LT(static_cast<double>(night) / static_cast<double>(night + day), 0.10);
}

TEST(Generators, CommunityBoostSkewsIntraCommunityContacts) {
  SyntheticTraceConfig cfg;
  cfg.nodeCount = 24;
  cfg.duration = sim::days(20);
  cfg.model = RateModel::kCommunity;
  cfg.communities = 4;
  cfg.intraCommunityBoost = 10.0;
  cfg.diurnal = false;
  cfg.meanContactsPerPairPerDay = 1.0;
  cfg.seed = 4;
  const auto t = generate(cfg);
  ASSERT_EQ(t.community.size(), 24u);
  std::size_t intra = 0;
  std::size_t inter = 0;
  for (const auto& c : t.trace.contacts()) {
    if (t.community[c.a] == t.community[c.b]) ++intra; else ++inter;
  }
  // Intra pairs are ~23% of pairs; with a 10x boost they should dominate.
  EXPECT_GT(intra, inter);
}

TEST(Generators, ParetoModelProducesRateSkew) {
  SyntheticTraceConfig cfg;
  cfg.nodeCount = 30;
  cfg.duration = sim::days(10);
  cfg.model = RateModel::kPareto;
  cfg.diurnal = false;
  cfg.meanContactsPerPairPerDay = 1.0;
  cfg.seed = 9;
  const auto t = generate(cfg);
  double minRate = 1e18;
  double maxRate = 0.0;
  for (NodeId i = 0; i < 30; ++i)
    for (NodeId j = i + 1; j < 30; ++j) {
      minRate = std::min(minRate, t.rates.rate(i, j));
      maxRate = std::max(maxRate, t.rates.rate(i, j));
    }
  EXPECT_GT(maxRate / minRate, 10.0);
}

TEST(Generators, RealityPresetShape) {
  const auto cfg = realityLikeConfig(1);
  EXPECT_EQ(cfg.nodeCount, 97u);
  EXPECT_DOUBLE_EQ(cfg.duration, sim::days(30));
  const auto t = generate(cfg);
  EXPECT_EQ(t.trace.nodeCount(), 97u);
  const auto s = t.trace.stats();
  // Reality-scale sparsity: ~0.1 contacts/pair/day within a factor of two.
  EXPECT_GT(s.meanContactsPerPairPerDay, 0.05);
  EXPECT_LT(s.meanContactsPerPairPerDay, 0.2);
}

TEST(Generators, InfocomPresetIsMuchDenser) {
  auto reality = realityLikeConfig(1);
  auto infocom = infocomLikeConfig(1);
  const auto r = generate(reality).trace.stats();
  const auto i = generate(infocom).trace.stats();
  EXPECT_EQ(i.nodeCount, 78u);
  EXPECT_GT(i.meanContactsPerPairPerDay, 10.0 * r.meanContactsPerPairPerDay);
}

TEST(Generators, ContactDurationsAverageToConfig) {
  auto cfg = homogeneousConfig(15, 3.0, sim::days(10), 8);
  cfg.meanContactDuration = 240.0;
  const auto t = generate(cfg);
  EXPECT_NEAR(t.trace.stats().meanContactDuration, 240.0, 20.0);
}

/// A small config of `model` that still draws every random process it has
/// (diurnal thinning on for the dense models).
SyntheticTraceConfig visitorConfig(RateModel model) {
  SyntheticTraceConfig config = infocomLikeConfig(11);
  config.model = model;
  config.nodeCount = 20;
  config.duration = sim::days(2);
  if (model == RateModel::kMobilityCommunity || model == RateModel::kMobilityPowerLaw) {
    config.nodeCount = 200;
    config.meanContactsPerPairPerDay = 1.0;
  }
  return config;
}

class GeneratedContacts : public ::testing::TestWithParam<RateModel> {};

// forEachGeneratedContact visits exactly generate()'s contacts, and each
// pair's contacts in strictly increasing start: the order a per-pair
// consumer such as the rate estimator needs.
TEST_P(GeneratedContacts, VisitorYieldsGeneratesContactsInPerPairOrder) {
  const SyntheticTraceConfig config = visitorConfig(GetParam());
  using Key = std::tuple<NodeId, NodeId, sim::SimTime, sim::SimTime>;
  const auto key = [](const Contact& c) {
    return Key{std::min(c.a, c.b), std::max(c.a, c.b), c.start, c.duration};
  };

  std::vector<Key> visited;
  std::map<std::pair<NodeId, NodeId>, sim::SimTime> lastStart;
  forEachGeneratedContact(config, [&](const Contact& c) {
    const Key k = key(c);
    const std::pair<NodeId, NodeId> pair{std::get<0>(k), std::get<1>(k)};
    if (const auto it = lastStart.find(pair); it != lastStart.end()) {
      EXPECT_GT(c.start, it->second) << "pair " << pair.first << "," << pair.second;
    }
    lastStart[pair] = c.start;
    visited.push_back(k);
  });

  const SyntheticTrace trace = generate(config);
  std::vector<Key> generated;
  for (const Contact& c : trace.trace.contacts()) generated.push_back(key(c));
  ASSERT_GT(generated.size(), 100u);
  std::sort(visited.begin(), visited.end());
  std::sort(generated.begin(), generated.end());
  EXPECT_EQ(visited, generated);
}

INSTANTIATE_TEST_SUITE_P(AllModels, GeneratedContacts,
                         ::testing::Values(RateModel::kHomogeneous, RateModel::kPareto,
                                           RateModel::kCommunity,
                                           RateModel::kMobilityCommunity,
                                           RateModel::kMobilityPowerLaw),
                         [](const ::testing::TestParamInfo<RateModel>& info) {
                           switch (info.param) {
                             case RateModel::kHomogeneous: return "Homogeneous";
                             case RateModel::kPareto: return "Pareto";
                             case RateModel::kCommunity: return "Community";
                             case RateModel::kMobilityCommunity: return "MobilityCommunity";
                             case RateModel::kMobilityPowerLaw: return "MobilityPowerLaw";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace dtncache::trace
