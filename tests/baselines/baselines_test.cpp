#include "baselines/baselines.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/source.hpp"
#include "net/network.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace dtncache::baselines {
namespace {

/// Shared rig: 12-node homogeneous trace, one item, pluggable scheme.
struct Rig {
  explicit Rig(cache::RefreshScheme& scheme, std::uint64_t seed = 1,
               double contactsPerPairPerDay = 6.0, sim::SimTime duration = sim::days(10))
      : world(trace::generate(
            trace::homogeneousConfig(12, contactsPerPairPerDay, duration, seed))),
        catalog(makeCatalog()),
        estimator(12, {}, 0.0),
        network(simulator, world.trace),
        collector(catalog, 0.0),
        coop(simulator, network, catalog, estimator, collector, world.rates, cacheConfig()),
        horizon(duration) {
    sources = std::make_unique<data::SourceProcess>(simulator, catalog, horizon);
    coop.setScheme(&scheme);
    coop.start(*sources, nullptr, horizon);
  }

  static data::Catalog makeCatalog() {
    data::CatalogConfig cfg;
    cfg.itemCount = 2;
    cfg.nodeCount = 12;
    cfg.refreshPeriod = sim::hours(12);
    return data::makeUniformCatalog(cfg);
  }
  static cache::CoopCacheConfig cacheConfig() {
    cache::CoopCacheConfig c;
    c.cachingNodesPerItem = 5;
    return c;
  }

  metrics::RunResults run() {
    simulator.runUntil(horizon);
    return collector.finalize(horizon, network.transfers());
  }

  trace::SyntheticTrace world;
  sim::Simulator simulator;
  data::Catalog catalog;
  trace::ContactRateEstimator estimator;
  net::Network network;
  metrics::MetricsCollector collector;
  cache::CooperativeCache coop;
  std::unique_ptr<data::SourceProcess> sources;
  sim::SimTime horizon;
};

/// Four nodes on a hand-written contact schedule: node 0 is the source of
/// the one item (a version every 100 s, valid for 200 s), node 1 is its
/// only caching node, and nodes 2 and 3 are plain carriers.
struct HandRig {
  HandRig(cache::RefreshScheme& scheme, std::vector<trace::Contact> contacts)
      : trace(4, std::move(contacts)),
        catalog(makeCatalog()),
        estimator(4, {}, 0.0),
        network(simulator, trace),
        collector(catalog, 0.0),
        coop(simulator, network, catalog, estimator, collector, planningRates(),
             cacheConfig()) {
    sources = std::make_unique<data::SourceProcess>(simulator, catalog, kHorizon);
    coop.setScheme(&scheme);
    coop.start(*sources, nullptr, kHorizon);
  }

  static constexpr sim::SimTime kHorizon = 1000.0;
  static data::Catalog makeCatalog() {
    data::ItemSpec s;
    s.sizeBytes = 1000;
    s.refreshPeriod = 100.0;
    s.lifetime = 200.0;
    return data::Catalog({s});
  }
  static trace::RateMatrix planningRates() {
    trace::RateMatrix m(4);
    m.setRate(1, 0, 0.10);
    m.setRate(1, 2, 0.10);
    m.setRate(1, 3, 0.10);
    return m;  // node 1 is the most central non-source node
  }
  static cache::CoopCacheConfig cacheConfig() {
    cache::CoopCacheConfig c;
    c.cachingNodesPerItem = 1;
    return c;
  }

  sim::Simulator simulator;
  trace::ContactTrace trace;
  data::Catalog catalog;
  trace::ContactRateEstimator estimator;
  net::Network network;
  metrics::MetricsCollector collector;
  cache::CooperativeCache coop;
  std::unique_ptr<data::SourceProcess> sources;
};

TEST(Flooding, RelayCopiesAndActivityFollowEachCarrier) {
  FloodingScheme flooding;
  HandRig rig(flooding, {{150.0, 10.0, 0, 2},    // source hands v1 to carrier 2
                         {170.0, 10.0, 2, 3},    // 2 hands v1 on to carrier 3
                         {250.0, 10.0, 0, 2},    // source upgrades 2's copy to v2
                         {270.0, 10.0, 2, 1}});  // 2 refreshes member 1 to v2
  ASSERT_TRUE(rig.coop.isCachingNode(1, 0));
  EXPECT_EQ(flooding.relayCopies(), 0u);
  for (NodeId n = 0; n < 4; ++n) EXPECT_FALSE(flooding.contactActive(n));

  rig.simulator.runUntil(160.0);
  EXPECT_EQ(flooding.relayCopies(), 1u);
  EXPECT_TRUE(flooding.contactActive(2));
  EXPECT_FALSE(flooding.contactActive(3));

  rig.simulator.runUntil(180.0);
  EXPECT_EQ(flooding.relayCopies(), 2u);
  EXPECT_TRUE(flooding.contactActive(3));

  // An upgrade replaces the carrier's copy; it adds none.
  rig.simulator.runUntil(260.0);
  EXPECT_EQ(flooding.relayCopies(), 2u);

  // A member gets the version installed in its cache, not a relay copy.
  rig.simulator.runUntil(HandRig::kHorizon);
  EXPECT_EQ(flooding.relayCopies(), 2u);
  EXPECT_FALSE(flooding.contactActive(0));
  EXPECT_FALSE(flooding.contactActive(1));
  EXPECT_EQ(rig.coop.storeOf(1).find(0)->version, 2u);
}

TEST(Invalidation, KnownVersionMergesOnEachContact) {
  InvalidationScheme inv;
  HandRig rig(inv, {{150.0, 10.0, 0, 2},    // 2 hears v1 from the source
                    {170.0, 10.0, 2, 3},    // 3 hears v1 from 2
                    {270.0, 10.0, 3, 1}});  // member 1 hears v1 and pulls
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(inv.knownVersion(n, 0), 0u);

  rig.simulator.runUntil(160.0);
  EXPECT_EQ(inv.knownVersion(0, 0), 1u);
  EXPECT_EQ(inv.knownVersion(2, 0), 1u);
  EXPECT_EQ(inv.knownVersion(3, 0), 0u);

  rig.simulator.runUntil(180.0);
  EXPECT_EQ(inv.knownVersion(3, 0), 1u);
  EXPECT_EQ(inv.knownVersion(1, 0), 0u);
  EXPECT_EQ(inv.pullsIssued(), 0u);  // only the member pulls

  // Member 1's warm-start v0 expired at 200, so the rumor of v1 that
  // reaches it at 270 makes it pull.
  rig.simulator.runUntil(HandRig::kHorizon);
  EXPECT_EQ(inv.knownVersion(1, 0), 1u);
  EXPECT_EQ(inv.knownVersion(3, 0), 1u);
  EXPECT_EQ(inv.knownVersion(2, 0), 1u);
  EXPECT_EQ(inv.pullsIssued(), 1u);
}

TEST(NoRefresh, NeverTransfersRefreshBytes) {
  NoRefreshScheme scheme;
  Rig rig(scheme);
  const auto r = rig.run();
  EXPECT_EQ(r.transfers.of(net::Traffic::kRefresh).bytes, 0u);
  EXPECT_EQ(r.refreshPushes, 0u);
  // Fresh only during the first period: 12h of 10 days ≈ 5%.
  EXPECT_LT(r.meanFreshFraction, 0.1);
}

TEST(SourceDirect, OnlySourceContactsCarryRefreshes) {
  SourceDirectScheme scheme;
  Rig rig(scheme);
  const auto r = rig.run();
  EXPECT_GT(r.refreshPushes, 0u);
  EXPECT_GT(r.meanFreshFraction, 0.1);
}

TEST(Epidemic, BeatsSourceDirect) {
  SourceDirectScheme direct;
  Rig rigDirect(direct, 3);
  const auto rDirect = rigDirect.run();

  EpidemicScheme epidemic;
  Rig rigEpidemic(epidemic, 3);
  const auto rEpidemic = rigEpidemic.run();

  EXPECT_GT(rEpidemic.meanFreshFraction, rDirect.meanFreshFraction);
}

TEST(Flooding, IsTheFreshnessCeiling) {
  EpidemicScheme epidemic;
  Rig rigEpidemic(epidemic, 5, /*contactsPerPairPerDay=*/1.0, sim::days(20));
  const auto rEpidemic = rigEpidemic.run();

  FloodingScheme flooding;
  Rig rigFlooding(flooding, 5, 1.0, sim::days(20));
  const auto rFlooding = rigFlooding.run();

  EXPECT_GE(rFlooding.meanFreshFraction, rEpidemic.meanFreshFraction);
  EXPECT_GT(rigFlooding.network.transfers().of(net::Traffic::kRefresh).bytes,
            rigEpidemic.network.transfers().of(net::Traffic::kRefresh).bytes);
}

TEST(Flooding, NonMembersCarryRelayCopies) {
  FloodingScheme flooding;
  Rig rig(flooding);
  rig.run();
  EXPECT_GT(flooding.relayCopies(), 0u);
}

TEST(Pull, IssuesPullsAndRefreshesCopies) {
  PullConfig cfg;
  cfg.checkPeriod = sim::hours(1);
  PullScheme pull(cfg);
  Rig rig(pull);
  const auto r = rig.run();
  EXPECT_GT(pull.pullsIssued(), 0u);
  EXPECT_GT(r.transfers.of(net::Traffic::kPull).messages, 0u);
  // Pull responses arrive as refresh-category data copies.
  EXPECT_GT(r.refreshPushes, 0u);
  EXPECT_GT(r.meanFreshFraction, 0.05);
}

TEST(Pull, OutstandingRequestsAreRateLimited) {
  PullConfig cfg;
  cfg.checkPeriod = sim::hours(1);
  cfg.pullTtl = sim::days(2);
  PullScheme pull(cfg);
  // Near-zero contact rate: pulls can never be answered, so the count is
  // bounded by members × items (one outstanding each), not by time.
  Rig rig(pull, 9, /*contactsPerPairPerDay=*/0.001, sim::days(2));
  rig.run();
  EXPECT_LE(pull.pullsIssued(), 5u * 2u);
}

TEST(Invalidation, GossipSpreadsVersionKnowledge) {
  InvalidationScheme inv;
  Rig rig(inv);
  rig.run();
  // After 10 days of dense mixing, every node should have heard of a recent
  // version of item 0 (bumps every 12 h → final version 20).
  const data::Version current = rig.catalog.clock(0).currentVersion(rig.horizon);
  std::size_t aware = 0;
  for (NodeId n = 0; n < 12; ++n)
    if (inv.knownVersion(n, 0) + 2 >= current) ++aware;
  EXPECT_GE(aware, 10u);
}

TEST(Invalidation, PullsOnlyWhenStalenessKnown) {
  InvalidationScheme inv;
  Rig rig(inv);
  const auto r = rig.run();
  EXPECT_GT(inv.pullsIssued(), 0u);
  EXPECT_GT(r.transfers.of(net::Traffic::kPull).messages, 0u);
  EXPECT_GT(r.refreshPushes, 0u);
}

TEST(Invalidation, BeatsBlindAgeBasedPull) {
  // Gossip detects staleness at rumor speed; age-based pulling guesses.
  PullScheme pull;
  Rig rigPull(pull, 17);
  const double fPull = rigPull.run().meanFreshFraction;
  InvalidationScheme inv;
  Rig rigInv(inv, 17);
  const double fInv = rigInv.run().meanFreshFraction;
  EXPECT_GT(fInv, fPull * 0.9);  // at least comparable; usually better
}

TEST(Invalidation, GossipBytesAccountedAsControl) {
  InvalidationScheme inv;
  Rig rig(inv);
  const auto r = rig.run();
  // Handshake (2/contact) + gossip (2/contact).
  EXPECT_GT(r.transfers.of(net::Traffic::kControl).messages,
            2 * rig.network.contactsDelivered());
}

TEST(Flooding, RelaysBridgeDisconnectedMembers) {
  // Sparse run where member-to-member and source-to-member contacts are
  // rare: flooding must still beat epidemic decisively *because* of the
  // relay copies carried by non-members.
  EpidemicScheme epidemic;
  Rig rigE(epidemic, 31, /*contactsPerPairPerDay=*/0.8, sim::days(20));
  const auto e = rigE.run();
  FloodingScheme flooding;
  Rig rigF(flooding, 31, 0.8, sim::days(20));
  const auto f = rigF.run();
  EXPECT_GT(f.meanFreshFraction, 1.3 * e.meanFreshFraction);
  EXPECT_GT(flooding.relayCopies(), 0u);
}

TEST(SourceDirect, NeverUsesNonSourceSenders) {
  // All refresh bytes must be attributed to item sources.
  SourceDirectScheme scheme;
  Rig rig(scheme, 13);
  const auto r = rig.run();
  ASSERT_GT(r.transfers.of(net::Traffic::kRefresh).bytes, 0u);
  std::vector<NodeId> sources;
  for (data::ItemId item = 0; item < rig.catalog.size(); ++item)
    sources.push_back(rig.catalog.spec(item).source);
  const auto& perNode = r.transfers.perNodeRefreshBytes();
  for (NodeId n = 0; n < perNode.size(); ++n) {
    const bool isSource = std::find(sources.begin(), sources.end(), n) != sources.end();
    if (!isSource) {
      EXPECT_EQ(perNode[n], 0u) << "non-source node " << n << " sent refreshes";
    }
  }
}

TEST(Baselines, FreshnessOrderingHolds) {
  // The paper's qualitative ordering on a well-connected trace:
  // NoRefresh < SourceDirect <= Epidemic <= Flooding.
  NoRefreshScheme none;
  SourceDirectScheme direct;
  EpidemicScheme epidemic;
  FloodingScheme flooding;
  const double fNone = Rig(none, 21).run().meanFreshFraction;
  const double fDirect = Rig(direct, 21).run().meanFreshFraction;
  const double fEpidemic = Rig(epidemic, 21).run().meanFreshFraction;
  const double fFlood = Rig(flooding, 21).run().meanFreshFraction;
  EXPECT_LT(fNone, fDirect);
  EXPECT_LE(fDirect, fEpidemic + 0.02);
  EXPECT_LE(fEpidemic, fFlood + 0.02);
}

}  // namespace
}  // namespace dtncache::baselines
