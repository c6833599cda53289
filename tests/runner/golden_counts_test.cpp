/// \file golden_counts_test.cpp
/// Exact-count golden for one pinned Infocom-like cell: 78 nodes, 1 day,
/// all 7 schemes, queries on.
///
/// The cmp steps in CI hold output byte-identical across --jobs, shard
/// counts and pair layouts *within* one build. This test holds it across
/// commits: every ctr.* counter, the refresh-push count, the kernel's event
/// counts and the exact bits of the mean fresh fraction and the within-τ
/// ratio must equal the values recorded here. A hot-path rewrite that is
/// meant to be output-neutral must pass it unedited. When a change is meant
/// to move results, the failure message prints the new row in source form.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment.hpp"

namespace dtncache::runner {
namespace {

/// Every field that defines the cell is set here, so recalibrated program
/// defaults or presets show up as a config change, not as silent drift.
ExperimentConfig goldenConfig() {
  ExperimentConfig c;
  c.trace.nodeCount = 78;
  c.trace.duration = sim::days(1);
  c.trace.model = trace::RateModel::kCommunity;
  c.trace.meanContactsPerPairPerDay = 4.0;
  c.trace.paretoShape = 2.0;
  c.trace.rateSpread = 50.0;
  c.trace.communities = 4;
  c.trace.intraCommunityBoost = 3.0;
  c.trace.diurnal = true;
  c.trace.nightActivity = 0.05;
  c.trace.meanContactDuration = 180.0;
  c.trace.seed = 3;
  c.catalog.itemCount = 10;
  c.catalog.itemSizeBytes = 10 * 1024;
  c.catalog.refreshPeriod = sim::hours(6);
  c.catalog.lifetimeFactor = 2.0;
  c.catalog.staggerBirths = true;
  c.workload.queriesPerNodePerDay = 2.0;
  c.workload.zipfExponent = 0.8;
  c.workload.queryDeadline = sim::hours(3);
  c.workload.seed = 7;
  c.cache.cachingNodesPerItem = 8;
  c.cache.centralityWindow = sim::hours(24);
  c.cache.sampleInterval = sim::hours(1);
  c.estimator.mode = trace::EstimatorMode::kCumulative;
  c.estimator.priorRate = 0.0;
  c.estimator.backend = trace::PairBackend::kAuto;
  c.estimatorWarmup = sim::days(7);
  c.hierarchical.maintenancePeriod = sim::hours(12);
  c.shards = 1;
  c.seed = 3;
  return c;
}

std::string hexBits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

struct Golden {
  std::uint64_t eventsProcessed;
  std::size_t peakPendingEvents;
  std::size_t refreshPushes;
  const char* meanFresh;   ///< %a of results.meanFreshFraction
  const char* withinTau;   ///< %a of results.refreshWithinPeriodRatio
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// The row as it would be written in goldenRows(), for the failure message.
std::string render(const ExperimentOutput& out) {
  std::ostringstream os;
  os << "{" << out.eventsProcessed << ", " << out.peakPendingEvents << ", "
     << out.results.refreshPushes << ", \"" << hexBits(out.results.meanFreshFraction)
     << "\", \"" << hexBits(out.results.refreshWithinPeriodRatio) << "\",\n {";
  for (std::size_t i = 0; i < out.counters.size(); ++i) {
    if (i > 0) os << (i % 2 == 0 ? ",\n  " : ", ");
    os << "{\"" << out.counters[i].first << "\", " << out.counters[i].second << "}";
  }
  os << "}}";
  return os.str();
}

/// Checks every field of a golden row; on a mismatch the failure message
/// also prints the actual row in source form.
void expectRow(const ExperimentOutput& out, const Golden& want) {
  const bool same = out.eventsProcessed == want.eventsProcessed &&
                    out.peakPendingEvents == want.peakPendingEvents &&
                    out.results.refreshPushes == want.refreshPushes &&
                    hexBits(out.results.meanFreshFraction) == want.meanFresh &&
                    hexBits(out.results.refreshWithinPeriodRatio) == want.withinTau &&
                    out.counters == want.counters;
  EXPECT_TRUE(same) << "actual row:\n" << render(out);
  EXPECT_EQ(out.eventsProcessed, want.eventsProcessed);
  EXPECT_EQ(out.peakPendingEvents, want.peakPendingEvents);
  EXPECT_EQ(out.results.refreshPushes, want.refreshPushes);
  EXPECT_EQ(hexBits(out.results.meanFreshFraction), want.meanFresh);
  EXPECT_EQ(hexBits(out.results.refreshWithinPeriodRatio), want.withinTau);
  EXPECT_EQ(out.counters, want.counters);
}

// Recorded from the tree before the contact-path rewrite (stream merge,
// inline reads, per-contact utility memo); that rewrite is output-neutral.
const std::vector<std::pair<SchemeKind, Golden>>& goldenRows() {
  static const std::vector<std::pair<SchemeKind, Golden>> rows = {
      {SchemeKind::kHierarchical,
       {12539, 211, 183, "0x1.afd583a8b2157p-1", "0x1.79ce739ce739dp-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 183},
         {"cache.push.delivered", 106}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 22}, {"cache.query.sprayed", 152},
         {"cache.reply.delivered", 394}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 2},
         {"core.plan.helpers", 859}, {"core.plan.unmet", 207}, {"core.relay.injected", 357},
         {"core.reparent.count", 4}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 1585}, {"shard.fence_contacts", 10722},
         {"shard.fence_from_expired_only", 444}}}},
      {SchemeKind::kNoRefresh,
       {12537, 210, 4, "0x1.78bce73f1ba54p-2", "0x1.0842108421084p-6",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 4},
         {"cache.push.delivered", 0}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 15}, {"cache.query.sprayed", 159},
         {"cache.reply.delivered", 334}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 0},
         {"core.plan.helpers", 0}, {"core.plan.unmet", 0}, {"core.relay.injected", 0},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 2769}, {"shard.fence_contacts", 9538},
         {"shard.fence_from_expired_only", 1070}}}},
      {SchemeKind::kSourceDirect,
       {12537, 210, 108, "0x1.2a3600d395754p-1", "0x1.b9ce739ce739dp-2",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 108},
         {"cache.push.delivered", 107}, {"cache.push.denied", 0}, {"cache.push.noop", 225},
         {"cache.query.local_hit", 20}, {"cache.query.sprayed", 154},
         {"cache.reply.delivered", 411}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 0},
         {"core.plan.helpers", 0}, {"core.plan.unmet", 0}, {"core.relay.injected", 0},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 2537}, {"shard.fence_contacts", 9770},
         {"shard.fence_from_expired_only", 814}}}},
      {SchemeKind::kPull,
       {12561, 211, 108, "0x1.14a70c1a12276p-1", "0x1.b18c6318c6319p-2",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 108},
         {"cache.push.delivered", 0}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 22}, {"cache.query.sprayed", 152},
         {"cache.reply.delivered", 403}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 0},
         {"core.plan.helpers", 0}, {"core.plan.unmet", 0}, {"core.relay.injected", 0},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 972}, {"shard.fence_contacts", 11335},
         {"shard.fence_from_expired_only", 196}}}},
      {SchemeKind::kInvalidation,
       {12537, 210, 109, "0x1.33234dce6fe2ap-1", "0x1.bdef7bdef7bdfp-2",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 109},
         {"cache.push.delivered", 0}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 21}, {"cache.query.sprayed", 153},
         {"cache.reply.delivered", 391}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 0},
         {"core.plan.helpers", 0}, {"core.plan.unmet", 0}, {"core.relay.injected", 0},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 768}, {"shard.fence_contacts", 11539},
         {"shard.fence_from_expired_only", 215}}}},
      {SchemeKind::kEpidemic,
       {12537, 210, 183, "0x1.a25fbb29c0dadp-1", "0x1.79ce739ce739dp-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 183},
         {"cache.push.delivered", 183}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 22}, {"cache.query.sprayed", 152},
         {"cache.reply.delivered", 394}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 0},
         {"core.plan.helpers", 0}, {"core.plan.unmet", 0}, {"core.relay.injected", 0},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 2718}, {"shard.fence_contacts", 9589},
         {"shard.fence_from_expired_only", 881}}}},
      {SchemeKind::kFlooding,
       {12537, 210, 192, "0x1.d490f33685046p-1", "0x1.8c6318c6318c6p-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 192},
         {"cache.push.delivered", 192}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 22}, {"cache.query.sprayed", 152},
         {"cache.reply.delivered", 394}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 0},
         {"core.plan.helpers", 0}, {"core.plan.unmet", 0}, {"core.relay.injected", 0},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 21}, {"shard.fence_contacts", 12286},
         {"shard.fence_from_expired_only", 0}}}},
  };
  return rows;
}

TEST(GoldenCounts, InfocomOneDayCellIsExact) {
  ExperimentConfig cfg = goldenConfig();
  const auto& rows = goldenRows();
  ASSERT_EQ(rows.size(), allSchemes().size());
  for (const auto& [kind, want] : rows) {
    cfg.scheme = kind;
    const ExperimentOutput out = runExperiment(cfg);
    SCOPED_TRACE(schemeName(kind));
    expectRow(out, want);
  }
}

TEST(GoldenCounts, ForwardPassesOfTheCellAreExact) {
  // Forwarding passes that walked a live buffer. Round two of a contact
  // runs a pass only when one of the two passes before it moved bytes;
  // running both rounds always walks more buffers for the same counters.
  const std::vector<std::pair<SchemeKind, std::uint64_t>> want = {
      {SchemeKind::kHierarchical, 16942}, {SchemeKind::kNoRefresh, 12841},
      {SchemeKind::kSourceDirect, 13540}, {SchemeKind::kPull, 22748},
      {SchemeKind::kInvalidation, 23196}, {SchemeKind::kEpidemic, 12749},
      {SchemeKind::kFlooding, 12749}};
  ASSERT_EQ(want.size(), allSchemes().size());
  ExperimentConfig cfg = goldenConfig();
  for (const auto& [kind, passes] : want) {
    cfg.scheme = kind;
    EXPECT_EQ(runExperiment(cfg).forwardPasses, passes) << schemeName(kind);
  }
}

TEST(GoldenCounts, ChurnEnergyCellIsExact) {
  // The same cell with node churn and battery drain on, and energy-aware
  // helper selection, so churn flips, Pull's periodic checks and the
  // maintenance re-arms all run through the kernel's timer path. Recorded
  // before the event set was reduced to one heap of callbacks; that change
  // is output-neutral.
  const std::vector<std::pair<SchemeKind, Golden>> rows = {
      {SchemeKind::kHierarchical,
       {12577, 249, 172, "0x1.a158800b45e6ep-1", "0x1.6318c6318c632p-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 172},
         {"cache.push.delivered", 102}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 22}, {"cache.query.sprayed", 138},
         {"cache.reply.delivered", 363}, {"core.churn.repairs", 31},
         {"core.maintenance.runs", 2},
         {"core.plan.helpers", 1665}, {"core.plan.unmet", 409}, {"core.relay.injected", 320},
         {"core.reparent.count", 8}, {"net.contact.delivered", 10417},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 1890},
         {"shard.boring_contacts", 1245}, {"shard.fence_contacts", 9172},
         {"shard.fence_from_expired_only", 391}}}},
      {SchemeKind::kPull,
       {12599, 249, 99, "0x1.0f0853defdd27p-1", "0x1.9084210842108p-2",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 99},
         {"cache.push.delivered", 0}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 22}, {"cache.query.sprayed", 138},
         {"cache.reply.delivered", 365}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 0},
         {"core.plan.helpers", 0}, {"core.plan.unmet", 0}, {"core.relay.injected", 0},
         {"core.reparent.count", 0}, {"net.contact.delivered", 10417},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 1890},
         {"shard.boring_contacts", 783}, {"shard.fence_contacts", 9634},
         {"shard.fence_from_expired_only", 210}}}},
  };
  // The churn schedule is drawn upfront from its own seed, so both schemes
  // see the same flips.
  const std::size_t churnFlips = 38;
  ExperimentConfig cfg = goldenConfig();
  cfg.churnEnabled = true;
  cfg.energyEnabled = true;
  cfg.energyAwarePlanning = true;
  for (const auto& [kind, want] : rows) {
    cfg.scheme = kind;
    const ExperimentOutput out = runExperiment(cfg);
    SCOPED_TRACE(schemeName(kind));
    expectRow(out, want);
    EXPECT_EQ(out.churnTransitions, churnFlips);
  }
}

TEST(GoldenCounts, MaintenanceModesCellIsExact) {
  // Hierarchical on the same cell with 10-minute maintenance ticks under the
  // windowed estimators, in both maintenance modes: 144 ticks re-derive
  // every item's tree and plan from estimates that move between ticks.
  // Recorded on the tree that still replayed cached plans on unchanged
  // ticks (121, 116, 40 and 40 plan-cache hits in these rows); recomputing
  // every item at every tick is output-neutral.
  struct Cell {
    const char* name;
    trace::EstimatorMode estimator;
    core::MaintenanceMode maintenance;
    Golden want;
  };
  const std::vector<Cell> rows = {
      {"ewma/rebuild", trace::EstimatorMode::kEwma, core::MaintenanceMode::kRebuild,
       {12681, 211, 181, "0x1.aadef09a6ca33p-1", "0x1.75ad6b5ad6b5bp-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 181},
         {"cache.push.delivered", 109}, {"cache.push.denied", 0},
         {"cache.push.noop", 0}, {"cache.query.local_hit", 22},
         {"cache.query.sprayed", 152}, {"cache.reply.delivered", 482},
         {"core.churn.repairs", 0},
         {"core.maintenance.runs", 144},
         {"core.plan.helpers", 36052},
         {"core.plan.unmet", 7535}, {"core.relay.injected", 325},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 1593}, {"shard.fence_contacts", 10714},
         {"shard.fence_from_expired_only", 295}}}},
      {"ewma/local-repair", trace::EstimatorMode::kEwma, core::MaintenanceMode::kLocalRepair,
       {12681, 211, 181, "0x1.a9f4e32f26ae3p-1", "0x1.75ad6b5ad6b5bp-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 181},
         {"cache.push.delivered", 109}, {"cache.push.denied", 0},
         {"cache.push.noop", 0}, {"cache.query.local_hit", 22},
         {"cache.query.sprayed", 152}, {"cache.reply.delivered", 482},
         {"core.churn.repairs", 0},
         {"core.maintenance.runs", 144},
         {"core.plan.helpers", 36739},
         {"core.plan.unmet", 7871}, {"core.relay.injected", 328},
         {"core.reparent.count", 134}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 1571}, {"shard.fence_contacts", 10736},
         {"shard.fence_from_expired_only", 301}}}},
      {"window/rebuild", trace::EstimatorMode::kSlidingWindow, core::MaintenanceMode::kRebuild,
       {12681, 211, 183, "0x1.b08577f782e89p-1", "0x1.79ce739ce739dp-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 183},
         {"cache.push.delivered", 105}, {"cache.push.denied", 0},
         {"cache.push.noop", 0}, {"cache.query.local_hit", 22},
         {"cache.query.sprayed", 152}, {"cache.reply.delivered", 400},
         {"core.churn.repairs", 0},
         {"core.maintenance.runs", 144},
         {"core.plan.helpers", 41683},
         {"core.plan.unmet", 10044}, {"core.relay.injected", 352},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 1624}, {"shard.fence_contacts", 10683},
         {"shard.fence_from_expired_only", 396}}}},
      {"window/local-repair", trace::EstimatorMode::kSlidingWindow,
       core::MaintenanceMode::kLocalRepair,
       {12681, 211, 183, "0x1.b090ea87d150dp-1", "0x1.79ce739ce739dp-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 183},
         {"cache.push.delivered", 106}, {"cache.push.denied", 0},
         {"cache.push.noop", 0}, {"cache.query.local_hit", 22},
         {"cache.query.sprayed", 152}, {"cache.reply.delivered", 400},
         {"core.churn.repairs", 0},
         {"core.maintenance.runs", 144},
         {"core.plan.helpers", 41683},
         {"core.plan.unmet", 10044}, {"core.relay.injected", 352},
         {"core.reparent.count", 7}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 1624}, {"shard.fence_contacts", 10683},
         {"shard.fence_from_expired_only", 396}}}},
  };
  ExperimentConfig cfg = goldenConfig();
  cfg.scheme = SchemeKind::kHierarchical;
  cfg.hierarchical.maintenancePeriod = sim::minutes(10);
  for (const Cell& row : rows) {
    cfg.estimator.mode = row.estimator;
    cfg.hierarchical.maintenance = row.maintenance;
    const ExperimentOutput out = runExperiment(cfg);
    SCOPED_TRACE(row.name);
    expectRow(out, row.want);
  }
}

TEST(GoldenCounts, ExternalTraceCellIsExact) {
  // The cell's own trace, generated once and fed back as a caller-owned
  // external trace: planning rates (and the oracle arm's rates) are fitted
  // from it, and the estimator warms up on its first 6 hours. All three
  // runs replay the one trace object.
  ExperimentConfig cfg = goldenConfig();
  const trace::SyntheticTrace world = trace::generate(runTraceConfig(cfg));
  cfg.externalTrace = &world.trace;
  cfg.estimatorWarmup = sim::hours(6);
  struct Cell {
    const char* name;
    SchemeKind scheme;
    bool oracle;
    Golden want;
  };
  const std::vector<Cell> rows = {
      {"hierarchical", SchemeKind::kHierarchical, false,
       {12536, 210, 182, "0x1.a6e4bcf2bcb7fp-1", "0x1.8444444444444p-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 182},
         {"cache.push.delivered", 88}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 23}, {"cache.query.sprayed", 151},
         {"cache.reply.delivered", 529}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 1},
         {"core.plan.helpers", 387}, {"core.plan.unmet", 129}, {"core.relay.injected", 303},
         {"core.reparent.count", 19}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 1847}, {"shard.fence_contacts", 10460},
         {"shard.fence_from_expired_only", 369}}}},
      {"hierarchical/oracle", SchemeKind::kHierarchical, true,
       {12536, 210, 183, "0x1.b370e44ef6de1p-1", "0x1.8666666666666p-1",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 183},
         {"cache.push.delivered", 89}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 23}, {"cache.query.sprayed", 151},
         {"cache.reply.delivered", 529}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 1},
         {"core.plan.helpers", 534}, {"core.plan.unmet", 118}, {"core.relay.injected", 342},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 1800}, {"shard.fence_contacts", 10507},
         {"shard.fence_from_expired_only", 338}}}},
      {"pull", SchemeKind::kPull, false,
       {12558, 210, 127, "0x1.22260d5a75f25p-1", "0x1.f333333333333p-2",
        {{"cache.handshake.truncated", 0}, {"cache.install.evicted", 0},
         {"cache.install.inserted", 80}, {"cache.install.upgraded", 127},
         {"cache.push.delivered", 0}, {"cache.push.denied", 0}, {"cache.push.noop", 0},
         {"cache.query.local_hit", 22}, {"cache.query.sprayed", 152},
         {"cache.reply.delivered", 520}, {"core.churn.repairs", 0},
         {"core.maintenance.runs", 0},
         {"core.plan.helpers", 0}, {"core.plan.unmet", 0}, {"core.relay.injected", 0},
         {"core.reparent.count", 0}, {"net.contact.delivered", 12307},
         {"net.contact.lost", 0}, {"net.contact.suppressed", 0},
         {"shard.boring_contacts", 1260}, {"shard.fence_contacts", 11047},
         {"shard.fence_from_expired_only", 241}}}},
  };
  for (const Cell& row : rows) {
    cfg.scheme = row.scheme;
    cfg.hierarchical.useOracleRates = row.oracle;
    const ExperimentOutput out = runExperiment(cfg);
    SCOPED_TRACE(row.name);
    expectRow(out, row.want);
    EXPECT_EQ(out.traceStats.contactCount, 12307u);
    EXPECT_EQ(out.traceStats.pairsThatMet, 2721u);
    EXPECT_EQ(hexBits(out.traceStats.meanPairwiseRate), "0x1.b74ef7832d537p-15");
  }
}

TEST(GoldenCounts, TraceStatsOfTheCellAreExact) {
  // Computed once per memoized trace; runs read the stored copy.
  const ExperimentOutput out = runExperiment(goldenConfig());
  const trace::TraceStats& s = out.traceStats;
  EXPECT_EQ(s.nodeCount, 78u);
  EXPECT_EQ(s.contactCount, 12307u);
  EXPECT_EQ(s.pairsThatMet, 2721u);
  EXPECT_EQ(hexBits(s.duration), "0x1.515e3c2f3fb65p+16");
  EXPECT_EQ(hexBits(s.meanContactsPerPairPerDay), "0x1.0663bc015608dp+2");
  EXPECT_EQ(hexBits(s.meanContactDuration), "0x1.66deeb79d982dp+7");
  EXPECT_EQ(hexBits(s.meanPairwiseRate), "0x1.b74ef7832d537p-15");
}

}  // namespace
}  // namespace dtncache::runner
