/// Memoization of synthetic-trace generation and of the estimator warm-up.
///
/// A cached result must be byte-identical to an unmemoized computation,
/// and any change to the inputs must miss.

#include "trace/trace_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
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

  // 16 newer warm-up requests evict it; newer world traces do not.
  for (std::uint64_t seed = 100; seed < 116; ++seed)
    generateShared(homogeneousConfig(4, 1.0, sim::hours(1), seed));
  EXPECT_EQ(warmedEstimatorShared(warm, 12, config, warm.duration).get(), base.get());
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    const SyntheticTraceConfig other = homogeneousConfig(4, 1.0, sim::hours(1), seed);
    warmedEstimatorShared(other, 4, config, other.duration);
  }
  EXPECT_NE(warmedEstimatorShared(warm, 12, config, warm.duration).get(), base.get());

  // So does clearing the cache.
  const auto again = warmedEstimatorShared(warm, 12, config, warm.duration);
  clearTraceCache();
  EXPECT_NE(warmedEstimatorShared(warm, 12, config, warm.duration).get(), again.get());
}

TEST(WarmedEstimatorCache, KeyedByTheWarmupTraceConfig) {
  clearTraceCache();
  const SyntheticTraceConfig warm = homogeneousConfig(12, 4.0, sim::days(1), 3);
  const EstimatorConfig config;
  const auto base = warmedEstimatorShared(warm, 12, config, warm.duration);
  SyntheticTraceConfig reseeded = warm;
  reseeded.seed += 1;
  EXPECT_NE(warmedEstimatorShared(reseeded, 12, config, warm.duration).get(), base.get());
  SyntheticTraceConfig denser = warm;
  denser.meanContactsPerPairPerDay *= 2.0;
  EXPECT_NE(warmedEstimatorShared(denser, 12, config, warm.duration).get(), base.get());
  EXPECT_EQ(warmedEstimatorShared(warm, 12, config, warm.duration).get(), base.get());
}

TEST(WarmedEstimatorCache, ConcurrentRequestsEachEqualAFreshReplay) {
  clearTraceCache();
  const SyntheticTraceConfig warm = homogeneousConfig(30, 3.0, sim::days(2), 21);
  EstimatorConfig config;
  config.mode = EstimatorMode::kEwma;
  std::vector<std::shared_ptr<const ContactRateEstimator>> results(4);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i)
      threads.emplace_back(
          [&, i] { results[i] = warmedEstimatorShared(warm, 30, config, warm.duration); });
    for (std::thread& t : threads) t.join();
  }
  const ContactRateEstimator fresh = replayWarmup(warm, 30, config, warm.duration);
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    for (const sim::SimTime t : {0.0, sim::days(1)})
      expectSameRates(result->snapshot(t), fresh.snapshot(t));
    EXPECT_EQ(result->observedPairCount(), fresh.observedPairCount());
  }
  // Racing misses may each replay, but later requests all hit one entry.
  const auto hit = warmedEstimatorShared(warm, 30, config, warm.duration);
  EXPECT_EQ(warmedEstimatorShared(warm, 30, config, warm.duration).get(), hit.get());
}

TEST(TraceCache, GeneratedAndCsvLoadedTracesAreExactSize) {
  clearTraceCache();
  const auto expectExact = [](const ContactTrace& trace) {
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.contacts().capacity(), trace.contacts().size());
  };
  expectExact(generateShared(homogeneousConfig(20, 5.0, sim::days(3), 4))->trace);
  SyntheticTraceConfig mobility;
  mobility.model = RateModel::kMobilityCommunity;
  mobility.nodeCount = 300;
  mobility.duration = sim::days(1);
  mobility.seed = 8;
  expectExact(generateShared(mobility)->trace);

  std::stringstream csv;
  generate(homogeneousConfig(10, 2.0, sim::days(2), 5)).trace.writeCsv(csv);
  expectExact(ContactTrace::readCsv(csv));
}

}  // namespace
}  // namespace dtncache::trace
