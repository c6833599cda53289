/// Memoization of synthetic-trace generation and external-trace adoption.
///
/// Both caches share one contract: a cached result must be byte-identical
/// to an unmemoized computation, and any change to the inputs (config
/// fields, or the content behind a reused trace address) must miss.

#include "trace/trace_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "trace/estimator.hpp"
#include "trace/generators.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::trace {
namespace {

void expectSameRates(const RateMatrix& a, const RateMatrix& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (NodeId i = 0; i < a.nodeCount(); ++i)
    for (NodeId j = i + 1; j < a.nodeCount(); ++j)
      ASSERT_EQ(a.rate(i, j), b.rate(i, j));
}

ContactTrace smallTrace(double offset = 0.0) {
  std::vector<Contact> contacts;
  for (int k = 0; k < 50; ++k) {
    Contact c;
    c.start = offset + 100.0 * k;
    c.duration = 30.0;
    c.a = static_cast<NodeId>(k % 6);
    c.b = static_cast<NodeId>((k + 1 + k % 3) % 6);
    if (c.a == c.b) c.b = (c.b + 1) % 6;
    contacts.push_back(c);
  }
  return ContactTrace(6, contacts);
}

TEST(ExternalTraceCache, AdoptionIsMemoizedAndByteIdentical) {
  clearExternalTraceCache();
  const ContactTrace t = smallTrace();

  const auto first = externalShared(t);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->trace.contacts().size(), t.contacts().size());
  expectSameRates(first->rates, RateMatrix::fitFromTrace(t));
  auto stats = externalTraceCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Same object again: a hit returning the same shared result.
  const auto second = externalShared(t);
  EXPECT_EQ(second.get(), first.get());
  stats = externalTraceCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ExternalTraceCache, MutatedContentAtTheSameAddressMisses) {
  // Re-assigning the trace object keeps its address but changes its
  // content — exactly the reload scenario the fingerprint guards against.
  clearExternalTraceCache();
  ContactTrace t = smallTrace();
  const auto first = externalShared(t);
  t = smallTrace(7.0);  // same address, shifted contact times
  const auto second = externalShared(t);
  EXPECT_NE(second.get(), first.get());
  expectSameRates(second->rates, RateMatrix::fitFromTrace(t));
  const auto stats = externalTraceCacheStats();
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ExternalTraceCache, DistinctTracesGetDistinctEntries) {
  clearExternalTraceCache();
  const ContactTrace a = smallTrace();
  const ContactTrace b = smallTrace(3.5);
  const auto ra = externalShared(a);
  const auto rb = externalShared(b);
  EXPECT_NE(ra.get(), rb.get());
  // Both stay cached; re-requests hit.
  EXPECT_EQ(externalShared(a).get(), ra.get());
  EXPECT_EQ(externalShared(b).get(), rb.get());
  const auto stats = externalTraceCacheStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ExternalTraceCache, ClearResetsEntriesAndStats) {
  clearExternalTraceCache();
  const ContactTrace t = smallTrace();
  const auto first = externalShared(t);
  clearExternalTraceCache();
  auto stats = externalTraceCacheStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  // The evicted result stays alive through the caller's shared_ptr; a new
  // request refits rather than resurrecting it.
  const auto second = externalShared(t);
  EXPECT_NE(second.get(), first.get());
  expectSameRates(second->rates, first->rates);
}

/// The warm-up runExperiment performed before the memo: a fresh estimator
/// fed every contact of a fresh generation.
ContactRateEstimator replayWarmup(const SyntheticTraceConfig& warm, std::size_t nodes,
                                  const EstimatorConfig& config, sim::SimTime warmup) {
  ContactRateEstimator est(nodes, config, -warmup);
  const SyntheticTrace trace = generate(warm);
  for (const Contact& c : trace.trace.contacts())
    est.recordContact(c.a, c.b, c.start - warmup);
  return est;
}

TEST(WarmedEstimatorCache, MemoHitEqualsAFreshReplayInEveryMode) {
  clearTraceCache();
  const SyntheticTraceConfig warm = homogeneousConfig(12, 4.0, sim::days(2), 9);
  const sim::SimTime warmup = warm.duration;
  for (const EstimatorMode mode :
       {EstimatorMode::kCumulative, EstimatorMode::kSlidingWindow, EstimatorMode::kEwma}) {
    EstimatorConfig config;
    config.mode = mode;
    config.window = sim::hours(12);
    const auto first = warmedEstimatorShared(warm, 12, config, warmup);
    const auto hit = warmedEstimatorShared(warm, 12, config, warmup);
    EXPECT_EQ(hit.get(), first.get());
    const ContactRateEstimator fresh = replayWarmup(warm, 12, config, warmup);
    for (const sim::SimTime t : {0.0, sim::hours(5), sim::days(3)}) {
      SCOPED_TRACE(t);
      expectSameRates(hit->snapshot(t), fresh.snapshot(t));
    }
    EXPECT_EQ(hit->observedPairCount(), fresh.observedPairCount());
  }
}

TEST(WarmedEstimatorCache, KeyedByEveryInputAndDroppedWithTheTrace) {
  clearTraceCache();
  const SyntheticTraceConfig warm = homogeneousConfig(12, 4.0, sim::days(1), 3);
  const EstimatorConfig config;
  const auto base = warmedEstimatorShared(warm, 12, config, warm.duration);
  EstimatorConfig windowed = config;
  windowed.mode = EstimatorMode::kSlidingWindow;
  EXPECT_NE(warmedEstimatorShared(warm, 12, windowed, warm.duration).get(), base.get());
  EXPECT_NE(warmedEstimatorShared(warm, 12, config, sim::days(2)).get(), base.get());
  EXPECT_NE(warmedEstimatorShared(warm, 13, config, warm.duration).get(), base.get());
  EXPECT_EQ(warmedEstimatorShared(warm, 12, config, warm.duration).get(), base.get());

  // Evicting the trace (16 newer entries) drops its estimators too.
  for (std::uint64_t seed = 100; seed < 116; ++seed)
    generateShared(homogeneousConfig(4, 1.0, sim::hours(1), seed));
  EXPECT_NE(warmedEstimatorShared(warm, 12, config, warm.duration).get(), base.get());

  // So does clearing the cache.
  const auto again = warmedEstimatorShared(warm, 12, config, warm.duration);
  clearTraceCache();
  EXPECT_NE(warmedEstimatorShared(warm, 12, config, warm.duration).get(), again.get());
}

}  // namespace
}  // namespace dtncache::trace
