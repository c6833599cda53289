#include "trace/rate_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dtncache::trace {
namespace {

TEST(RateMatrix, SymmetricStorage) {
  RateMatrix m(4);
  m.setRate(1, 3, 0.5);
  EXPECT_DOUBLE_EQ(m.rate(1, 3), 0.5);
  EXPECT_DOUBLE_EQ(m.rate(3, 1), 0.5);
}

TEST(RateMatrix, SelfRateIsZero) {
  RateMatrix m(4);
  EXPECT_DOUBLE_EQ(m.rate(2, 2), 0.0);
}

TEST(RateMatrix, DefaultsToZero) {
  RateMatrix m(5);
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(m.rate(i, j), 0.0);
}

TEST(RateMatrix, AllPairsIndependentlyAddressable) {
  const std::size_t n = 7;
  RateMatrix m(n);
  double v = 1.0;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) m.setRate(i, j, v++);
  v = 1.0;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) EXPECT_DOUBLE_EQ(m.rate(i, j), v++);
}

TEST(RateMatrix, MeetingProbability) {
  RateMatrix m(2);
  m.setRate(0, 1, 0.1);
  EXPECT_NEAR(m.meetingProbability(0, 1, 10.0), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(ContactProbabilityFn, Basics) {
  EXPECT_DOUBLE_EQ(contactProbability(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(contactProbability(1.0, 0.0), 0.0);
  EXPECT_NEAR(contactProbability(2.0, 1.0), 1.0 - std::exp(-2.0), 1e-12);
}

TEST(ExpectedContactDelayFn, InfiniteForZeroRate) {
  EXPECT_TRUE(std::isinf(expectedContactDelay(0.0)));
  EXPECT_DOUBLE_EQ(expectedContactDelay(0.5), 2.0);
}

TEST(RateMatrix, FitFromTrace) {
  std::vector<Contact> cs;
  for (int i = 0; i < 10; ++i) cs.push_back({static_cast<double>(i * 10), 1.0, 0, 1});
  cs.push_back({50.0, 1.0, 1, 2});
  cs.push_back({99.0, 1.0, 0, 2});
  ContactTrace trace(3, std::move(cs));
  const auto m = RateMatrix::fitFromTrace(trace);
  const double d = trace.duration();
  EXPECT_DOUBLE_EQ(m.rate(0, 1), 10.0 / d);
  EXPECT_DOUBLE_EQ(m.rate(1, 2), 1.0 / d);
  EXPECT_DOUBLE_EQ(m.rate(0, 2), 1.0 / d);
}

TEST(RateMatrix, FitFromEmptyTraceIsZero) {
  const auto m = RateMatrix::fitFromTrace(ContactTrace(3, {}));
  EXPECT_DOUBLE_EQ(m.rate(0, 1), 0.0);
}

}  // namespace
}  // namespace dtncache::trace
