#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace dtncache::sim {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(Accumulator, SingleSampleVarianceZero) {
  Accumulator a;
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, ResetClears) {
  Accumulator a;
  a.add(1.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(TimeWeightedMean, ConstantSignal) {
  TimeWeightedMean m;
  m.update(0.0, 0.5);
  EXPECT_DOUBLE_EQ(m.mean(10.0), 0.5);
}

TEST(TimeWeightedMean, StepSignal) {
  TimeWeightedMean m;
  m.update(0.0, 0.0);
  m.update(4.0, 1.0);  // 0 for 4s, then 1 for 6s
  EXPECT_DOUBLE_EQ(m.mean(10.0), 0.6);
}

TEST(TimeWeightedMean, MultipleSteps) {
  TimeWeightedMean m;
  m.update(0.0, 1.0);
  m.update(2.0, 3.0);
  m.update(6.0, 0.0);
  // (1*2 + 3*4 + 0*4) / 10 = 1.4
  EXPECT_DOUBLE_EQ(m.mean(10.0), 1.4);
}

TEST(TimeWeightedMean, NonZeroStart) {
  TimeWeightedMean m(100.0);
  m.update(100.0, 2.0);
  m.update(105.0, 4.0);
  EXPECT_DOUBLE_EQ(m.mean(110.0), 3.0);
}

TEST(TimeWeightedMean, TimeBackwardsThrows) {
  TimeWeightedMean m;
  m.update(5.0, 1.0);
  EXPECT_THROW(m.update(4.0, 2.0), InvariantViolation);
}

TEST(TimeWeightedMean, CurrentValueTracksLastUpdate) {
  TimeWeightedMean m;
  m.update(1.0, 0.25);
  EXPECT_DOUBLE_EQ(m.currentValue(), 0.25);
}

TEST(TimeSeries, RecordsPoints) {
  TimeSeries s;
  s.record(1.0, 10.0);
  s.record(2.0, 20.0);
  ASSERT_EQ(s.points().size(), 2u);
  EXPECT_DOUBLE_EQ(s.points()[1].value, 20.0);
}

TEST(TimeSeries, ResampleShrinksEvenly) {
  TimeSeries s;
  for (int i = 0; i < 100; ++i) s.record(static_cast<double>(i), static_cast<double>(i));
  const auto pts = s.resampled(5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts.front().time, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().time, 99.0);
}

TEST(TimeSeries, ResampleNoopWhenSmall) {
  TimeSeries s;
  s.record(1.0, 1.0);
  EXPECT_EQ(s.resampled(10).size(), 1u);
}

TEST(Ratio, EmptyDenominatorIsZeroNotNan) {
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(std::size_t{9}, std::size_t{3}), 3.0);
  EXPECT_DOUBLE_EQ(ratio(std::size_t{9}, std::size_t{0}), 0.0);
}

}  // namespace
}  // namespace dtncache::sim
