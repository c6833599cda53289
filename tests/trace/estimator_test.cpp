#include "trace/estimator.hpp"

#include <gtest/gtest.h>

#include "trace/generators.hpp"

namespace dtncache::trace {
namespace {

TEST(Estimator, UnseenPairUsesPrior) {
  EstimatorConfig cfg;
  cfg.priorRate = 0.001;
  ContactRateEstimator e(5, cfg);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 0.001);
}

TEST(Estimator, DefaultPriorIsZero) {
  ContactRateEstimator e(5, {});
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 0.0);
}

TEST(Estimator, CumulativeIsCountOverElapsed) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 10.0);
  e.recordContact(0, 1, 20.0);
  e.recordContact(1, 0, 90.0);  // symmetric pair key
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 3.0 / 100.0);
  EXPECT_DOUBLE_EQ(e.rate(1, 0, 100.0), 3.0 / 100.0);
}

TEST(Estimator, CumulativeRespectsStartTime) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(4, cfg, -100.0);  // pre-fed warm-up history
  e.recordContact(0, 1, -50.0);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 1.0 / 200.0);
}

TEST(Estimator, SlidingWindowForgetsOldContacts) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kSlidingWindow;
  cfg.window = 100.0;
  ContactRateEstimator e(4, cfg, 0.0);
  for (int i = 0; i < 10; ++i) e.recordContact(0, 1, 10.0 * i);
  // At t=150, only contacts in [50, 150] remain: t=50,60,70,80,90 → 5.
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 150.0), 5.0 / 100.0);
  // Far in the future everything is forgotten; falls back to prior (0).
  e.recordContact(2, 3, 1000.0);  // trigger pruning on another pair only
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 10000.0), 0.0);
}

TEST(Estimator, SlidingWindowEarlyPhaseUsesElapsedSpan) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kSlidingWindow;
  cfg.window = 1000.0;
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 10.0);
  e.recordContact(0, 1, 20.0);
  // Only 50s of history exists; divide by 50, not the 1000s window.
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 50.0), 2.0 / 50.0);
}

TEST(Estimator, EwmaTracksIntervals) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kEwma;
  cfg.ewmaAlpha = 1.0;  // newest interval only
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 100.0);
  e.recordContact(0, 1, 150.0);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 200.0), 1.0 / 50.0);
  e.recordContact(0, 1, 160.0);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 200.0), 1.0 / 10.0);
}

TEST(Estimator, EwmaSingleContactFallsBackToCumulative) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kEwma;
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 50.0);
  EXPECT_DOUBLE_EQ(e.rate(0, 1, 100.0), 1.0 / 100.0);
}

TEST(Estimator, SnapshotMatchesPointQueries) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(5, cfg, 0.0);
  e.recordContact(0, 1, 10.0);
  e.recordContact(2, 4, 20.0);
  const auto m = e.snapshot(100.0);
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = i + 1; j < 5; ++j) EXPECT_DOUBLE_EQ(m.rate(i, j), e.rate(i, j, 100.0));
}

TEST(Estimator, ConvergesToTrueRateOnSyntheticTrace) {
  // Feed a long homogeneous trace; cumulative estimates must converge to
  // the generator's ground truth.
  const auto world = generate(homogeneousConfig(8, 4.0, sim::days(60), 3));
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(8, cfg, 0.0);
  for (const auto& c : world.trace.contacts()) e.recordContact(c.a, c.b, c.start);
  const double horizon = sim::days(60);
  double truth = world.rates.rate(0, 1);
  double sumRel = 0.0;
  int pairs = 0;
  for (NodeId i = 0; i < 8; ++i)
    for (NodeId j = i + 1; j < 8; ++j) {
      sumRel += e.rate(i, j, horizon) / truth;
      ++pairs;
    }
  EXPECT_NEAR(sumRel / pairs, 1.0, 0.05);
}

TEST(Estimator, MeetingProbabilityUsesEstimate) {
  EstimatorConfig cfg;
  cfg.mode = EstimatorMode::kCumulative;
  ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 1, 50.0);
  const double r = e.rate(0, 1, 100.0);
  EXPECT_DOUBLE_EQ(e.meetingProbability(0, 1, 30.0, 100.0), contactProbability(r, 30.0));
}

TEST(Estimator, InvalidConfigThrows) {
  EstimatorConfig cfg;
  cfg.ewmaAlpha = 0.0;
  EXPECT_THROW(ContactRateEstimator(4, cfg), InvariantViolation);
  EstimatorConfig cfg2;
  cfg2.window = 0.0;
  EXPECT_THROW(ContactRateEstimator(4, cfg2), InvariantViolation);
}

}  // namespace
}  // namespace dtncache::trace
