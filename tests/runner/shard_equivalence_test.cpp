// Sharded-kernel equivalence: the fence protocol's whole contract is that a
// sharded run is indistinguishable from the single-threaded one — not
// statistically, but byte for byte. Every test here runs the identical
// config at several shard counts and compares the full JSONL event trace
// (doubles at precision 17), the sorted counter snapshot, and the result
// fields exactly. Any estimator-order, admission-order, or merge bug shows
// up as a one-byte diff long before it would move an aggregate.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "runner/experiment.hpp"
#include "runner/shard_plan.hpp"
#include "trace/pair_index.hpp"

namespace dtncache::runner {
namespace {

struct Capture {
  ExperimentOutput out;
  std::string trace;
};

Capture runWith(ExperimentConfig cfg, std::size_t shards,
                std::vector<std::uint32_t> mapOverride = {}) {
  obs::Tracer tracer("eq");
  cfg.tracer = &tracer;
  cfg.shards = shards;
  cfg.shardMapOverride = std::move(mapOverride);
  Capture c;
  c.out = runExperiment(cfg);
  c.trace = tracer.buffer();
  return c;
}

void expectIdentical(const Capture& plain, const Capture& sharded, std::size_t shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  // The event trace is the strongest witness: every contact, push, query,
  // and snapshot-driven decision in emission order.
  ASSERT_EQ(plain.trace.size(), sharded.trace.size());
  EXPECT_EQ(plain.trace, sharded.trace);
  EXPECT_EQ(plain.out.counters, sharded.out.counters);

  const auto& a = plain.out.results;
  const auto& b = sharded.out.results;
  EXPECT_EQ(a.meanFreshFraction, b.meanFreshFraction);
  EXPECT_EQ(a.finalFreshFraction, b.finalFreshFraction);
  EXPECT_EQ(a.meanValidFraction, b.meanValidFraction);
  EXPECT_EQ(a.queries.issued, b.queries.issued);
  EXPECT_EQ(a.queries.answered, b.queries.answered);
  EXPECT_EQ(a.queries.answeredFresh, b.queries.answeredFresh);
  EXPECT_EQ(a.queries.localHits, b.queries.localHits);
  EXPECT_EQ(a.refreshPushes, b.refreshPushes);
  EXPECT_EQ(a.refreshWithinPeriodRatio, b.refreshWithinPeriodRatio);
  for (std::size_t k = 0; k < static_cast<std::size_t>(net::Traffic::kCategoryCount); ++k) {
    const auto cat = static_cast<net::Traffic>(k);
    EXPECT_EQ(a.transfers.of(cat).messages, b.transfers.of(cat).messages);
    EXPECT_EQ(a.transfers.of(cat).bytes, b.transfers.of(cat).bytes);
  }
  EXPECT_EQ(a.transfers.perNodeBytes(), b.transfers.perNodeBytes());
  EXPECT_EQ(a.transfers.perNodeRefreshBytes(), b.transfers.perNodeRefreshBytes());

  EXPECT_EQ(plain.out.peakPendingEvents, sharded.out.peakPendingEvents);
  EXPECT_EQ(plain.out.eventsProcessed, sharded.out.eventsProcessed);
  EXPECT_EQ(plain.out.contactsSuppressed, sharded.out.contactsSuppressed);
  EXPECT_EQ(plain.out.replicationAssignments, sharded.out.replicationAssignments);
  EXPECT_EQ(plain.out.meanPredictedProbability, sharded.out.meanPredictedProbability);
  EXPECT_EQ(plain.out.reparentCount, sharded.out.reparentCount);
  EXPECT_EQ(plain.out.pullsIssued, sharded.out.pullsIssued);

  // Coordination stats are real (and internally consistent) only when the
  // sharded kernel actually ran.
  const auto& s = sharded.out.shardStats;
  EXPECT_EQ(s.shards, shards);
  EXPECT_EQ(s.localContacts + s.crossContacts, s.contactsProcessed);
  EXPECT_EQ(s.fenceContacts + s.boringContacts + s.stolenContacts, s.contactsProcessed);
}

ExperimentConfig smallMobilityConfig(trace::RateModel model) {
  ExperimentConfig cfg;
  cfg.trace.model = model;
  cfg.trace.nodeCount = 60;
  cfg.trace.duration = sim::days(3);
  cfg.trace.communities = 5;
  cfg.trace.meanDegree = 12.0;
  cfg.trace.seed = 42;
  cfg.catalog.itemCount = 4;
  cfg.catalog.refreshPeriod = sim::hours(8);
  cfg.workload.queriesPerNodePerDay = 1.5;
  cfg.cache.cachingNodesPerItem = 6;
  cfg.estimatorWarmup = sim::days(1);
  return cfg;
}

TEST(ShardEquivalence, MobilityCommunityHierarchicalAllShardCounts) {
  const auto cfg = smallMobilityConfig(trace::RateModel::kMobilityCommunity);
  const Capture plain = runWith(cfg, 1);
  EXPECT_EQ(plain.out.shardStats.shards, 0u);  // plain kernel ran
  EXPECT_GT(plain.trace.size(), 0u);
  const Capture two = runWith(cfg, 2);
  expectIdentical(plain, two, 2);
  for (const std::size_t shards : {4u, 7u})
    expectIdentical(plain, runWith(cfg, shards), shards);

  // Exact fence classification at 2 shards: how many contacts had to run
  // serially and how many the activity fence let off the coordinator. The
  // split between worker-run and stolen contacts (and barrier waits)
  // depends on the host's core count, so only their sum is pinned.
  const ShardStats& s = two.out.shardStats;
  EXPECT_EQ(s.contactsProcessed, 79u);
  EXPECT_EQ(s.fenceContacts, 70u);
  EXPECT_EQ(s.boringContacts + s.stolenContacts, 9u);
  EXPECT_EQ(s.localTimerEvents, 106u);
}

TEST(ShardEquivalence, MobilityPowerLawWithContactLoss) {
  auto cfg = smallMobilityConfig(trace::RateModel::kMobilityPowerLaw);
  cfg.network.contactLossRate = 0.1;  // exercises the pre-drawn loss stream
  const Capture plain = runWith(cfg, 1);
  for (const std::size_t shards : {2u, 4u})
    expectIdentical(plain, runWith(cfg, shards), shards);
}

TEST(ShardEquivalence, ExternalTraceReplayUsesContiguousFallback) {
  // External traces carry no community labels: the plan falls back to
  // contiguous node ranges. Replay also skips estimator warm-up generation.
  const auto world = trace::generate(trace::homogeneousConfig(40, 4.0, sim::days(3), 7));
  ExperimentConfig cfg;
  cfg.externalTrace = &world.trace;
  cfg.catalog.itemCount = 3;
  cfg.catalog.refreshPeriod = sim::hours(12);
  cfg.workload.queriesPerNodePerDay = 2.0;
  cfg.cache.cachingNodesPerItem = 5;
  cfg.estimatorWarmup = sim::days(1);
  const Capture plain = runWith(cfg, 1);
  for (const std::size_t shards : {2u, 4u, 7u})
    expectIdentical(plain, runWith(cfg, shards), shards);
}

TEST(ShardEquivalence, AdversarialShardMapsCannotChangeOutput) {
  // Correctness must come from the fence protocol, not from a friendly
  // partition: round-robin node->shard maps maximize cross-shard pairs.
  const auto cfg = smallMobilityConfig(trace::RateModel::kMobilityCommunity);
  const Capture plain = runWith(cfg, 1);
  for (const std::size_t shards : {3u, 5u}) {
    std::vector<std::uint32_t> map(cfg.trace.nodeCount);
    for (std::size_t i = 0; i < map.size(); ++i)
      map[i] = static_cast<std::uint32_t>(i % shards);
    expectIdentical(plain, runWith(cfg, shards, map), shards);
  }
}

TEST(ShardEquivalence, FloodingRelayFenceIsHonored) {
  // Flooding marks relay-carrying nodes protocol-active via contactActive;
  // a missed fence would reorder relay handoffs and diverge the trace.
  auto cfg = smallMobilityConfig(trace::RateModel::kMobilityCommunity);
  cfg.scheme = SchemeKind::kFlooding;
  const Capture plain = runWith(cfg, 1);
  for (const std::size_t shards : {2u, 4u})
    expectIdentical(plain, runWith(cfg, shards), shards);
}

TEST(ShardEquivalence, PullSchemeUnderChurn) {
  auto cfg = smallMobilityConfig(trace::RateModel::kMobilityCommunity);
  cfg.scheme = SchemeKind::kPull;
  cfg.churnEnabled = true;
  cfg.churn.meanUptime = sim::hours(20);
  cfg.churn.meanDowntime = sim::hours(4);
  const Capture plain = runWith(cfg, 1);
  for (const std::size_t shards : {2u, 4u})
    expectIdentical(plain, runWith(cfg, shards), shards);
}

TEST(ShardEquivalence, SparsePairBackendPrecreationIsInvisible) {
  // Under the sparse pair layout the estimator pre-creates pair slots for
  // the whole horizon at enterShardMode; zero-count slots must stay
  // invisible to rates, snapshots, and observedPairCount.
  ::setenv("DTNCACHE_SPARSE_PAIRS", "1", 1);
  // The override must take effect even after earlier tests in this process
  // built pair structures, or this test silently runs dense.
  ASSERT_TRUE(trace::useSparsePairs(60, trace::PairBackend::kAuto));
  const auto cfg = smallMobilityConfig(trace::RateModel::kMobilityCommunity);
  const Capture plain = runWith(cfg, 1);
  const Capture sharded = runWith(cfg, 4);
  ::unsetenv("DTNCACHE_SPARSE_PAIRS");
  expectIdentical(plain, sharded, 4);
}

TEST(ShardEquivalence, OracleRatesTimerHeavyMaintenanceAllShardCounts) {
  // Under oracle rates the hierarchical maintenance tick reads only the
  // fixed planning matrix, so RefreshScheme::timerScope marks it
  // kShardLocal: the coordinator runs it concurrently with in-flight boring
  // contacts, no quiesce, no estimator drain. A dense tick schedule (1h
  // maintenance, 30min sampling over 3 days) maximizes the interleavings
  // between local timers and worker-held contacts; any state the tick
  // secretly shares with a boring handler diverges the trace.
  auto cfg = smallMobilityConfig(trace::RateModel::kMobilityCommunity);
  cfg.hierarchical.useOracleRates = true;
  cfg.hierarchical.maintenancePeriod = sim::hours(1);
  cfg.cache.sampleInterval = sim::minutes(30);
  const Capture plain = runWith(cfg, 1);
  for (const std::size_t shards : {2u, 4u, 7u}) {
    const Capture sharded = runWith(cfg, shards);
    // The no-quiesce lane must actually carry the tick load, or this test
    // exercises nothing.
    EXPECT_GT(sharded.out.shardStats.localTimerEvents, 0u);
    expectIdentical(plain, sharded, shards);
  }
}

TEST(ShardEquivalence, ExpiredHeavyWorkloadAllShardCounts) {
  // NoRefresh with lifetime == one period: warm-start copies die at 8h and
  // are never replaced, and short query deadlines kill buffered replies
  // fast. Most of the horizon, holders carry only dead bytes — the expiry
  // watermarks must reclassify them inert at each contact's own time
  // (activity decaying between serial events, with no mutation), and the
  // sharded trace must still match the plain kernel byte for byte.
  auto cfg = smallMobilityConfig(trace::RateModel::kMobilityCommunity);
  cfg.scheme = SchemeKind::kNoRefresh;
  cfg.catalog.lifetimeFactor = 1.0;
  cfg.workload.queryDeadline = sim::hours(2);
  const Capture plain = runWith(cfg, 1);
  for (const std::size_t shards : {2u, 4u, 7u}) {
    const Capture sharded = runWith(cfg, shards);
    // Dead-content nodes must be going boring (worker-run or stolen), not
    // pinning fences forever.
    EXPECT_GT(sharded.out.shardStats.boringContacts + sharded.out.shardStats.stolenContacts,
              0u);
    expectIdentical(plain, sharded, shards);
  }
}

TEST(ShardEquivalence, NonShardableSchemeFallsBackToPlainKernel) {
  auto cfg = smallMobilityConfig(trace::RateModel::kMobilityCommunity);
  cfg.scheme = SchemeKind::kInvalidation;
  const Capture requested = runWith(cfg, 4);
  EXPECT_EQ(requested.out.shardStats.shards, 0u);  // gated to plain
  const Capture plain = runWith(cfg, 1);
  EXPECT_EQ(plain.trace, requested.trace);
}

TEST(ShardPlan, CommunityMapKeepsCommunitiesTogether) {
  const std::vector<std::size_t> community = {0, 1, 2, 0, 1, 2, 3, 3};
  const auto map = makeShardMap(community.size(), 2, community);
  for (std::size_t i = 0; i < community.size(); ++i)
    EXPECT_EQ(map[i], community[i] % 2) << "node " << i;
}

TEST(ShardPlan, ContiguousFallbackBalancesRanges) {
  const auto map = makeShardMap(10, 3, {});
  EXPECT_EQ(map.front(), 0u);
  EXPECT_EQ(map.back(), 2u);
  for (std::size_t i = 1; i < map.size(); ++i) EXPECT_GE(map[i], map[i - 1]);
}

TEST(ShardPlan, SingleShardIsAllZero) {
  const auto map = makeShardMap(5, 1, {0, 1, 2, 3, 4});
  EXPECT_EQ(map, std::vector<std::uint32_t>(5, 0));
}

TEST(ShardPlan, ContactShardIsSymmetricAndStable) {
  const auto map = makeShardMap(20, 4, {});
  for (NodeId a = 0; a < 20; ++a)
    for (NodeId b = 0; b < 20; ++b) {
      if (a == b) continue;
      const auto s = contactShard(map, 4, a, b);
      EXPECT_EQ(s, contactShard(map, 4, b, a));
      EXPECT_LT(s, 4u);
      if (map[a] == map[b]) {
        EXPECT_EQ(s, map[a]);
      }
    }
}

}  // namespace
}  // namespace dtncache::runner
