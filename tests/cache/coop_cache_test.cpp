#include "cache/coop_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <stdexcept>

#include "baselines/baselines.hpp"
#include "data/source.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace dtncache::cache {
namespace {

/// Test scheme: the source pushes to any peer the substrate will accept.
class PushAlwaysScheme : public RefreshScheme {
 public:
  std::string name() const override { return "PushAlways"; }
  void onContact(CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                 net::ContactChannel& channel) override {
    for (data::ItemId item = 0; item < cache.catalog().size(); ++item) {
      cache.pushVersion(a, b, item, t, channel, net::Traffic::kRefresh);
      cache.pushVersion(b, a, item, t, channel, net::Traffic::kRefresh);
    }
  }
};

/// A 4-node rig: node 0 is the source of the single item; nodes 1 and 2 are
/// the caching nodes (they dominate the planning rates); node 3 is a plain
/// requester. The contact schedule is hand-written per test.
struct Rig {
  explicit Rig(std::vector<trace::Contact> contacts, bool warmStart = true,
               sim::SimTime tau = 100.0, double bandwidth = 1e9)
      : trace(4, std::move(contacts)),
        catalog(makeCatalog(tau)),
        estimator(4, estimatorConfig(), 0.0),
        network(simulator, trace, networkConfig(bandwidth)),
        collector(catalog, 0.0),
        coop(simulator, network, catalog, estimator, collector, planningRates(),
             cacheConfig(warmStart)) {}

  static data::Catalog makeCatalog(sim::SimTime tau) {
    data::ItemSpec s;
    s.id = 0;
    s.source = 0;
    s.sizeBytes = 1000;
    s.refreshPeriod = tau;
    s.lifetime = 2 * tau;
    return data::Catalog({s});
  }
  static trace::EstimatorConfig estimatorConfig() {
    trace::EstimatorConfig e;
    e.mode = trace::EstimatorMode::kCumulative;
    return e;
  }
  static net::NetworkConfig networkConfig(double bandwidth) {
    net::NetworkConfig n;
    n.bandwidthBytesPerSec = bandwidth;
    n.minContactBudgetBytes = 0;
    return n;
  }
  static trace::RateMatrix planningRates() {
    trace::RateMatrix m(4);
    m.setRate(1, 0, 0.10);
    m.setRate(1, 2, 0.10);
    m.setRate(1, 3, 0.10);
    m.setRate(2, 0, 0.05);
    m.setRate(2, 3, 0.05);
    return m;  // centrality order: 1, 2, then the rest
  }
  static CoopCacheConfig cacheConfig(bool warmStart) {
    CoopCacheConfig c;
    c.cachingNodesPerItem = 2;
    c.warmStart = warmStart;
    c.sampleInterval = 50.0;
    return c;
  }

  void start(RefreshScheme& scheme, sim::SimTime horizon) {
    sources = std::make_unique<data::SourceProcess>(simulator, catalog, horizon);
    coop.setScheme(&scheme);
    coop.start(*sources, nullptr, horizon);
    this->horizon = horizon;
  }

  void run() { simulator.runUntil(horizon); }

  sim::Simulator simulator;
  trace::ContactTrace trace;
  data::Catalog catalog;
  trace::ContactRateEstimator estimator;
  net::Network network;
  metrics::MetricsCollector collector;
  CooperativeCache coop;
  std::unique_ptr<data::SourceProcess> sources;
  sim::SimTime horizon = 0.0;
};

TEST(CoopCache, CachingNodesAreCentralNonSourceNodes) {
  Rig rig({{1.0, 1.0, 0, 1}});
  const auto& set = rig.coop.cachingNodesOf(0);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_TRUE(rig.coop.isCachingNode(1, 0));
  EXPECT_TRUE(rig.coop.isCachingNode(2, 0));
  EXPECT_FALSE(rig.coop.isCachingNode(0, 0));  // the source never "caches"
  EXPECT_FALSE(rig.coop.isCachingNode(3, 0));
}

// The caching sets depend on the rates, the catalog and the config alone:
// selectCachingNodes, which needs no simulation, returns the constructor's
// sets, skipping each item's source.
TEST(CoopCache, SelectCachingNodesIsTheConstructorsChoice) {
  trace::RateMatrix rates(6);
  for (NodeId i = 0; i < 6; ++i)
    for (NodeId j = i + 1; j < 6; ++j) rates.setRate(i, j, 0.01 * (i + 1) + 0.001 * j);
  std::vector<data::ItemSpec> specs;
  for (const NodeId source : {5u, 0u, 4u}) {
    data::ItemSpec s;
    s.id = static_cast<data::ItemId>(specs.size());
    s.source = source;
    s.refreshPeriod = 100.0;
    s.lifetime = 200.0;
    specs.push_back(s);
  }
  const data::Catalog catalog(specs);
  trace::ContactTrace trace(6, {{1.0, 1.0, 0, 1}});
  sim::Simulator simulator;
  net::Network network(simulator, trace);
  trace::ContactRateEstimator estimator(6, Rig::estimatorConfig(), 0.0);
  metrics::MetricsCollector collector(catalog, 0.0);
  CoopCacheConfig cfg;
  cfg.cachingNodesPerItem = 3;
  const CooperativeCache coop(simulator, network, catalog, estimator, collector, rates, cfg);

  const auto sets = selectCachingNodes(rates, 6, catalog, cfg);
  ASSERT_EQ(sets.size(), catalog.size());
  for (data::ItemId item = 0; item < catalog.size(); ++item) {
    EXPECT_EQ(sets[item], coop.cachingNodesOf(item));
    EXPECT_EQ(std::count(sets[item].begin(), sets[item].end(), specs[item].source), 0);
  }
  cfg.cachingNodesPerItem = 6;
  EXPECT_THROW(selectCachingNodes(rates, 6, catalog, cfg), std::invalid_argument);
}

TEST(CoopCache, WarmStartPopulatesCaches) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 10.0);
  EXPECT_TRUE(rig.coop.store().find(1, 0).has_value());
  EXPECT_TRUE(rig.coop.store().find(2, 0).has_value());
  EXPECT_FALSE(rig.coop.store().find(3, 0).has_value());
  EXPECT_EQ(rig.collector.totalCopies(), 2u);
}

TEST(CoopCache, HeldVersionSemantics) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 350.0);
  rig.run();
  // The source always holds the live version (3 bumps by t=350).
  EXPECT_EQ(rig.coop.heldVersion(0, 0, 350.0), data::Version{3});
  // Member 1 still stores the warm-start version 0, but that copy expired
  // at t=200 (lifetime 2*tau): heldVersion reports only valid copies, so
  // the member can no longer serve it even though the bytes are present.
  EXPECT_TRUE(rig.coop.store().find(1, 0).has_value());
  EXPECT_FALSE(rig.coop.heldVersion(1, 0, 350.0).has_value());
  // Before expiry the same copy was servable.
  EXPECT_EQ(rig.coop.heldVersion(1, 0, 150.0), data::Version{0});
  // Non-holders hold nothing.
  EXPECT_FALSE(rig.coop.heldVersion(3, 0, 350.0).has_value());
}

TEST(CoopCache, HeldVersionExpiryBoundary) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 10.0);
  // Warm start installed version 0, created at t=0 with lifetime 2*tau.
  const auto e = rig.coop.store().find(1, 0);
  ASSERT_TRUE(e.has_value());
  const sim::SimTime expiry = rig.catalog.clock(0).expiryTime(0);
  EXPECT_EQ(e->expiresAt, expiry);
  EXPECT_EQ(expiry, 200.0);
  // Valid strictly before expiresAt, gone at exactly expiresAt.
  EXPECT_EQ(rig.coop.heldVersion(1, 0, std::nextafter(expiry, 0.0)), data::Version{0});
  EXPECT_FALSE(rig.coop.heldVersion(1, 0, expiry).has_value());
  EXPECT_FALSE(rig.coop.heldVersion(1, 0, expiry + 1.0).has_value());
  // The source always answers, with the version live at the asked time.
  EXPECT_EQ(rig.coop.heldVersion(0, 0, 0.0), data::Version{0});
  EXPECT_EQ(rig.coop.heldVersion(0, 0, expiry), data::Version{2});
  EXPECT_EQ(rig.coop.heldVersion(0, 0, 1e9), rig.catalog.clock(0).currentVersion(1e9));
}

TEST(CoopCache, PushVersionUpgradesMemberOnContact) {
  // Source meets member 1 at t=150, after the version-1 bump at t=100.
  Rig rig({{150.0, 10.0, 0, 1}});
  PushAlwaysScheme scheme;
  rig.start(scheme, 200.0);
  rig.run();
  EXPECT_EQ(rig.coop.store().find(1, 0)->version, 1u);
  EXPECT_EQ(rig.coop.store().find(2, 0)->version, 0u);  // never met the source
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kRefresh).bytes, 0u);
}

TEST(CoopCache, PushToNonMemberIsRefused) {
  Rig rig({{150.0, 10.0, 0, 3}});  // node 3 is not a caching node
  PushAlwaysScheme scheme;
  rig.start(scheme, 200.0);
  rig.run();
  EXPECT_FALSE(rig.coop.store().find(3, 0).has_value());
  EXPECT_EQ(rig.network.transfers().of(net::Traffic::kRefresh).bytes, 0u);
}

TEST(CoopCache, PushSameVersionIsSkippedWithoutBytes) {
  Rig rig({{50.0, 10.0, 0, 1}});  // before any bump: both hold version 0
  PushAlwaysScheme scheme;
  rig.start(scheme, 90.0);
  rig.run();
  EXPECT_EQ(rig.network.transfers().of(net::Traffic::kRefresh).bytes, 0u);
}

TEST(CoopCache, HandshakeAccountedPerContact) {
  Rig rig({{1.0, 1.0, 0, 1}, {2.0, 1.0, 2, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 10.0);
  rig.run();
  // One control message per direction per contact, attributed to the sender.
  EXPECT_EQ(rig.network.transfers().of(net::Traffic::kControl).messages, 4u);
  const auto& perNode = rig.network.transfers().perNodeBytes();
  ASSERT_EQ(perNode.size(), 4u);
  for (NodeId n = 0; n < 4; ++n) EXPECT_GT(perNode[n], 0u);
}

TEST(CoopCache, TinyContactBudgetBlocksDataButNotProgress) {
  // 1 byte/s for 1 s cannot even carry the handshake.
  Rig rig({{150.0, 1.0, 0, 1}}, true, 100.0, /*bandwidth=*/1.0);
  PushAlwaysScheme scheme;
  rig.start(scheme, 200.0);
  rig.run();
  EXPECT_EQ(rig.coop.store().find(1, 0)->version, 0u);
  EXPECT_EQ(rig.network.transfers().total().bytes, 0u);
}

TEST(CoopCache, HeldTableAgreesWithStoresThroughUpgradesAndEvictions) {
  // Six nodes, five 1000-byte items and room for two copies per node:
  // random pushes of the live or the previous version force upgrades,
  // no-op pushes and LRU evictions. After every push, heldVersion and
  // canAnswer must say what an independent model of the caches says, also
  // one ulp either side of every copy's expiry. The model is a per-node
  // list of (item, version) in recency order, fed only with the pushes the
  // protocol must accept.
  constexpr std::size_t kNodes = 6;
  constexpr std::size_t kItems = 5;
  constexpr std::size_t kCopiesPerNode = 2;  // 2500-byte cache, 1000-byte items
  std::vector<data::ItemSpec> specs;
  for (data::ItemId i = 0; i < kItems; ++i) {
    data::ItemSpec s;
    s.id = i;
    s.source = i % 2 == 0 ? 0 : 5;
    s.sizeBytes = 1000;
    s.refreshPeriod = 100.0;
    s.lifetime = 200.0;
    s.birth = 7.0 * i;
    specs.push_back(s);
  }
  const data::Catalog catalog(specs);
  sim::Simulator simulator;
  const trace::ContactTrace trace(kNodes, {});
  net::Network network(simulator, trace);
  trace::ContactRateEstimator estimator(kNodes, {}, 0.0);
  metrics::MetricsCollector collector(catalog, 0.0);
  trace::RateMatrix rates(kNodes);
  for (NodeId i = 0; i < kNodes; ++i)
    for (NodeId j = i + 1; j < kNodes; ++j) rates.setRate(i, j, 0.01 * (1 + (i * 7 + j) % 5));
  CoopCacheConfig cfg;
  cfg.cachingNodesPerItem = 4;
  cfg.cacheCapacityBytes = 2500;
  CooperativeCache coop(simulator, network, catalog, estimator, collector, rates, cfg);
  obs::Registry registry;
  coop.setObservability(nullptr, &registry);

  struct Held {
    data::ItemId item;
    data::Version version;
  };
  std::vector<std::vector<Held>> model(kNodes);  // front = least recently used
  const auto modelFind = [&](NodeId n, data::ItemId item) -> Held* {
    for (Held& h : model[n])
      if (h.item == item) return &h;
    return nullptr;
  };

  const auto expectAgreement = [&](sim::SimTime now) {
    for (NodeId n = 0; n < kNodes; ++n) {
      for (data::ItemId item = 0; item < kItems; ++item) {
        const data::VersionClock& clock = catalog.clock(item);
        const Held* h = modelFind(n, item);
        std::vector<sim::SimTime> probes{now};
        if (h != nullptr) {
          const sim::SimTime expiresAt = clock.expiryTime(h->version);
          probes.push_back(expiresAt);
          probes.push_back(std::nextafter(expiresAt, -INFINITY));
          probes.push_back(std::nextafter(expiresAt, INFINITY));
        }
        for (const sim::SimTime t : probes) {
          std::optional<data::Version> want;
          if (n == clock.spec().source)
            want = clock.currentVersion(t);
          else if (h != nullptr && clock.isValid(h->version, t))
            want = h->version;
          ASSERT_EQ(coop.heldVersion(n, item, t), want) << "node " << n << " item " << item;
          ASSERT_EQ(coop.canAnswer(n, item, t), want.has_value())
              << "node " << n << " item " << item;
        }
      }
    }
  };

  std::mt19937_64 rng(42);
  net::TransferLog log(kNodes);
  sim::SimTime t = 0.0;
  expectAgreement(t);
  for (int step = 0; step < 4000; ++step) {
    t += std::uniform_real_distribution<double>(0.0, 20.0)(rng);
    const auto item = static_cast<data::ItemId>(rng() % kItems);
    const auto& members = coop.cachingNodesOf(item);
    const NodeId to = members[rng() % members.size()];
    const data::Version live = catalog.clock(item).currentVersion(t);
    const data::Version v = live > 0 && rng() % 3 == 0 ? live - 1 : live;
    // The push lands iff v is still valid and the receiver holds no valid
    // copy at least as new: an upgrade keeps its recency, an insert becomes
    // most recent and first evicts the least recent copy when full.
    Held* held = modelFind(to, item);
    const bool lands = catalog.clock(item).isValid(v, t) &&
                       (held == nullptr || !catalog.clock(item).isValid(held->version, t) ||
                        held->version < v);
    if (lands && held != nullptr) {
      held->version = v;
    } else if (lands) {
      if (model[to].size() == kCopiesPerNode) model[to].erase(model[to].begin());
      model[to].push_back({item, v});
    }
    net::ContactChannel channel(1u << 30, log);
    ASSERT_EQ(coop.pushSpecificVersion(catalog.spec(item).source, to, item, v, t, channel,
                                       net::Traffic::kRefresh),
              lands)
        << "step " << step;
    expectAgreement(t);
  }
  EXPECT_GT(registry.counter("cache.install.inserted").value(), 100u);
  EXPECT_GT(registry.counter("cache.install.upgraded").value(), 100u);
  EXPECT_GT(registry.counter("cache.install.evicted").value(), 100u);
  EXPECT_GT(registry.counter("cache.push.noop").value(), 100u);
}

TEST(CoopCache, LocalQueryHitAnswersInstantly) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 1;  // a caching node
  q.item = 0;
  q.issueTime = 50.0;
  q.deadline = 150.0;
  rig.simulator.scheduleAt(50.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.issued, 1u);
  EXPECT_EQ(r.queries.answered, 1u);
  EXPECT_EQ(r.queries.localHits, 1u);
  EXPECT_EQ(r.queries.answeredFresh, 1u);
  EXPECT_DOUBLE_EQ(r.queries.delay.mean(), 0.0);
}

TEST(CoopCache, SourceAnswersItsOwnQueriesLocally) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 0;
  q.item = 0;
  q.issueTime = 50.0;
  q.deadline = 150.0;
  rig.simulator.scheduleAt(50.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.localHits, 1u);
}

TEST(CoopCache, RemoteQueryAnsweredViaContact) {
  // Requester 3 queries at t=10; meets caching node 1 at t=30. The query
  // transfers to node 1 which generates a reply delivered in the same
  // contact's reverse pass.
  Rig rig({{30.0, 60.0, 1, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 3;
  q.item = 0;
  q.issueTime = 10.0;
  q.deadline = 200.0;
  rig.simulator.scheduleAt(10.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.answered, 1u);
  EXPECT_EQ(r.queries.answeredValid, 1u);
  EXPECT_EQ(r.queries.localHits, 0u);
  EXPECT_DOUBLE_EQ(r.queries.delay.mean(), 20.0);
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kReply).bytes, 0u);
}

TEST(CoopCache, StaleValidAnswerCountsValidNotFresh) {
  // Version bumps at t=100; member 1 still holds version 0 (valid until
  // t=200). A query answered at t=150 gets valid-but-stale data.
  Rig rig({{150.0, 60.0, 1, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 3;
  q.item = 0;
  q.issueTime = 140.0;
  q.deadline = 190.0;
  rig.simulator.scheduleAt(140.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.answered, 1u);
  EXPECT_EQ(r.queries.answeredValid, 1u);
  EXPECT_EQ(r.queries.answeredFresh, 0u);
}

TEST(CoopCache, ExpiredCopyCannotAnswer) {
  // Member 1 holds version 0, which expires at t=200. Contact at t=250.
  Rig rig({{250.0, 60.0, 1, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 3;
  q.item = 0;
  q.issueTime = 240.0;
  q.deadline = 300.0;
  rig.simulator.scheduleAt(240.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.answered, 0u);
}

TEST(CoopCache, LateReplyIsNotCounted) {
  // Query deadline t=25, but the only contact is at t=30.
  Rig rig({{30.0, 60.0, 1, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 3;
  q.item = 0;
  q.issueTime = 10.0;
  q.deadline = 25.0;
  rig.simulator.scheduleAt(10.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.answered, 0u);
}

TEST(CoopCache, ColdStartPlacementDeliversCopies) {
  // warmStart=false: the source must ship copies to members 1 and 2.
  // Source meets 1 directly; 1 later meets 2 (relay of the unicast copy
  // addressed to 2 requires 1 to be a better carrier — estimator sees the
  // 1↔2 contact history from these contacts themselves).
  std::vector<trace::Contact> contacts;
  contacts.push_back({5.0, 10.0, 0, 1});
  for (int i = 0; i < 5; ++i)
    contacts.push_back({20.0 + 10.0 * i, 5.0, 1, 2});
  contacts.push_back({80.0, 10.0, 0, 1});
  contacts.push_back({90.0, 10.0, 1, 2});  // final leg for the relayed copy
  Rig rig(std::move(contacts), /*warmStart=*/false);
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 99.0);
  rig.run();
  EXPECT_TRUE(rig.coop.store().find(1, 0).has_value());
  EXPECT_TRUE(rig.coop.store().find(2, 0).has_value());
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kPlacement).bytes, 0u);
}

TEST(CoopCache, PullMessageReachesSourceAndDataReturns) {
  // Member 1 injects a pull at t=10; meets source at t=20 (pull answered);
  // data copy handed back in the same contact.
  Rig rig({{20.0, 60.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  rig.simulator.scheduleAt(10.0, [&](sim::SimTime t) {
    net::Message m;
    m.kind = net::MessageKind::kPull;
    m.item = 0;
    m.dst = 0;
    m.origin = 1;
    m.createdAt = t;
    m.deadline = t + 300.0;
    m.copiesLeft = 2;
    rig.coop.injectMessage(1, m, t);
  });
  // Let a version bump happen first so the pull returns something newer.
  rig.simulator.runUntil(400.0);
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kPull).messages, 0u);
  // The pull response rides as a kDataCopy with refresh category.
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kRefresh).bytes, 0u);
  EXPECT_EQ(rig.coop.store().find(1, 0)->version, 0u);  // t=20 < first bump
}

TEST(CoopCache, ValidFractionScansStores) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  EXPECT_DOUBLE_EQ(rig.coop.validFraction(50.0), 1.0);    // both copies valid
  EXPECT_DOUBLE_EQ(rig.coop.validFraction(250.0), 0.0);   // both expired
}

TEST(CoopCache, RequiresSchemeBeforeStart) {
  Rig rig({{1.0, 1.0, 0, 1}});
  data::SourceProcess sources(rig.simulator, rig.catalog, 10.0);
  EXPECT_THROW(rig.coop.start(sources, nullptr, 10.0), InvariantViolation);
}

TEST(CoopCache, CachingSetSizeMustLeaveRoomForSource) {
  std::vector<trace::Contact> contacts{{1.0, 1.0, 0, 1}};
  trace::ContactTrace trace(4, std::move(contacts));
  sim::Simulator simulator;
  net::Network network(simulator, trace);
  data::Catalog catalog = Rig::makeCatalog(100.0);
  trace::ContactRateEstimator estimator(4, Rig::estimatorConfig(), 0.0);
  metrics::MetricsCollector collector(catalog, 0.0);
  CoopCacheConfig cfg;
  cfg.cachingNodesPerItem = 4;  // == node count: impossible
  EXPECT_THROW(CooperativeCache(simulator, network, catalog, estimator, collector,
                                Rig::planningRates(), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace dtncache::cache
