#include "net/forwarding.hpp"

#include <gtest/gtest.h>

namespace dtncache::net {
namespace {

trace::ContactRateEstimator makeEstimator() {
  trace::EstimatorConfig cfg;
  cfg.mode = trace::EstimatorMode::kCumulative;
  trace::ContactRateEstimator e(4, cfg, 0.0);
  // Node 1 meets node 3 often; node 0 rarely.
  for (int i = 0; i < 10; ++i) e.recordContact(1, 3, 10.0 * i);
  e.recordContact(0, 3, 50.0);
  return e;
}

/// betterCarrier through a memo opened for the contact (carrier, candidate).
bool betterCarrier(const trace::ContactRateEstimator& e, NodeId carrier, NodeId candidate,
                   NodeId dst, sim::SimTime now, double factor) {
  ContactUtilities memo(e.nodeCount(), 0);
  memo.open(e, carrier, candidate, now);
  return memo.betterCarrier(carrier, candidate, dst, factor);
}

TEST(Forwarding, DestinationIsAlwaysBetter) {
  const auto e = makeEstimator();
  EXPECT_TRUE(betterCarrier(e, 0, 3, 3, 100.0, 1.2));
}

TEST(Forwarding, CarrierAtDestinationNeverHandsOff) {
  const auto e = makeEstimator();
  EXPECT_FALSE(betterCarrier(e, 3, 1, 3, 100.0, 1.2));
}

TEST(Forwarding, HigherRateWinsWithFactor) {
  const auto e = makeEstimator();
  // rate(1,3)=0.1, rate(0,3)=0.01: 1 is a better carrier than 0 toward 3.
  EXPECT_TRUE(betterCarrier(e, 0, 1, 3, 100.0, 1.2));
  EXPECT_FALSE(betterCarrier(e, 1, 0, 3, 100.0, 1.2));
}

TEST(Forwarding, ImprovementFactorGatesMarginalGains) {
  trace::EstimatorConfig cfg;
  cfg.mode = trace::EstimatorMode::kCumulative;
  trace::ContactRateEstimator e(4, cfg, 0.0);
  for (int i = 0; i < 10; ++i) e.recordContact(0, 3, 10.0 * i);
  for (int i = 0; i < 11; ++i) e.recordContact(1, 3, 9.0 * i);
  // rate(1,3)=0.11 vs rate(0,3)=0.10: only a 10% gain.
  EXPECT_TRUE(betterCarrier(e, 0, 1, 3, 100.0, 1.0));
  EXPECT_FALSE(betterCarrier(e, 0, 1, 3, 100.0, 1.5));
}

TEST(Forwarding, ZeroUtilityCandidateRejected) {
  const auto e = makeEstimator();
  // Node 2 has never met node 3.
  EXPECT_FALSE(betterCarrier(e, 0, 2, 3, 100.0, 1.2));
}

TEST(Forwarding, MemoServesBothDirectionsOfOneContact) {
  const auto e = makeEstimator();
  ContactUtilities memo(e.nodeCount(), 1);
  memo.open(e, 0, 1, 100.0);
  EXPECT_TRUE(memo.betterCarrier(0, 1, 3, 1.2));
  EXPECT_FALSE(memo.betterCarrier(1, 0, 3, 1.2));
  int computed = 0;
  const auto toThree = [&](NodeId n) {
    ++computed;
    return e.rate(n, 3, 100.0);
  };
  EXPECT_EQ(memo.utility(0, 0, toThree), e.rate(0, 3, 100.0));
  EXPECT_EQ(memo.utility(1, 0, toThree), e.rate(1, 3, 100.0));
  EXPECT_EQ(memo.utility(0, 0, toThree), e.rate(0, 3, 100.0));
  EXPECT_EQ(computed, 2);  // once per endpoint, on the key's first use
}

TEST(Forwarding, MemoIsDroppedAtTheNextContact) {
  trace::EstimatorConfig cfg;
  cfg.mode = trace::EstimatorMode::kCumulative;
  trace::ContactRateEstimator e(4, cfg, 0.0);
  e.recordContact(0, 3, 10.0);
  for (int i = 0; i < 3; ++i) e.recordContact(1, 3, 10.0 * i);
  ContactUtilities memo(e.nodeCount(), 0);
  memo.open(e, 0, 1, 100.0);
  EXPECT_TRUE(memo.betterCarrier(0, 1, 3, 1.2));  // 3 contacts vs 1
  for (int i = 0; i < 5; ++i) e.recordContact(0, 3, 101.0 + i);
  memo.open(e, 0, 1, 110.0);  // a new contact re-reads the estimator
  EXPECT_FALSE(memo.betterCarrier(0, 1, 3, 1.2));  // now 3 vs 6
}

TEST(Forwarding, SprayShareIsBinary) {
  EXPECT_EQ(sprayShare(8), 4u);
  EXPECT_EQ(sprayShare(7), 4u);  // ceil(7/2)
  EXPECT_EQ(sprayShare(2), 1u);
  EXPECT_EQ(sprayShare(1), 1u);  // single copy migrates
  EXPECT_EQ(sprayShare(0), 0u);
}

TEST(Forwarding, SprayConservesCopies) {
  for (std::uint32_t c = 1; c <= 64; ++c) {
    const std::uint32_t handed = sprayShare(c);
    EXPECT_LE(handed, c);
    EXPECT_EQ(handed + (c - handed), c);
    if (c > 1) {
      EXPECT_GT(c - handed, 0u);  // carrier keeps at least one
    }
  }
}

}  // namespace
}  // namespace dtncache::net
