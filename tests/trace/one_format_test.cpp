#include "trace/one_format.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "sim/assert.hpp"

namespace dtncache::trace {
namespace {

TEST(OneFormat, BasicUpDownPairs) {
  std::stringstream in(
      "10.0 CONN n1 n2 up\n"
      "25.0 CONN n1 n2 down\n"
      "30.0 CONN n2 n3 up\n"
      "42.0 CONN n2 n3 down\n");
  const auto r = loadOneConnectivity(in);
  ASSERT_EQ(r.trace.contacts().size(), 2u);
  EXPECT_EQ(r.trace.nodeCount(), 3u);
  EXPECT_DOUBLE_EQ(r.trace.contacts()[0].start, 10.0);
  EXPECT_DOUBLE_EQ(r.trace.contacts()[0].duration, 15.0);
  EXPECT_DOUBLE_EQ(r.trace.contacts()[1].duration, 12.0);
  EXPECT_EQ(r.unmatchedDowns, 0u);
  EXPECT_EQ(r.unterminatedUps, 0u);
}

TEST(OneFormat, HostNamesMappedInFirstAppearanceOrder) {
  std::stringstream in(
      "1 CONN alpha beta up\n"
      "2 CONN alpha beta down\n"
      "3 CONN gamma alpha up\n"
      "4 CONN gamma alpha down\n");
  const auto r = loadOneConnectivity(in);
  ASSERT_EQ(r.hostNames.size(), 3u);
  EXPECT_EQ(r.hostNames[0], "alpha");
  EXPECT_EQ(r.hostNames[1], "beta");
  EXPECT_EQ(r.hostNames[2], "gamma");
}

TEST(OneFormat, NonConnLinesIgnored) {
  std::stringstream in(
      "0.5 C n0 [message created]\n"
      "1 CONN a b up\n"
      "2 M n1 n2 whatever extra\n"
      "3 CONN a b down\n");
  const auto r = loadOneConnectivity(in);
  EXPECT_EQ(r.trace.contacts().size(), 1u);
  EXPECT_EQ(r.ignoredLines, 2u);
}

TEST(OneFormat, UnmatchedDownCountedAndSkipped) {
  std::stringstream in(
      "5 CONN a b down\n"
      "10 CONN a b up\n"
      "20 CONN a b down\n");
  const auto r = loadOneConnectivity(in);
  EXPECT_EQ(r.trace.contacts().size(), 1u);
  EXPECT_EQ(r.unmatchedDowns, 1u);
}

TEST(OneFormat, UnterminatedUpClosedAtTraceEnd) {
  std::stringstream in(
      "10 CONN a b up\n"
      "50 CONN c d up\n"
      "60 CONN c d down\n");
  const auto r = loadOneConnectivity(in);
  ASSERT_EQ(r.trace.contacts().size(), 2u);
  EXPECT_EQ(r.unterminatedUps, 1u);
  // The a-b contact runs from 10 to the last event time (60).
  bool found = false;
  for (const auto& c : r.trace.contacts()) {
    if (c.start == 10.0) {
      EXPECT_DOUBLE_EQ(c.duration, 50.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(OneFormat, ReUpRestartsContact) {
  std::stringstream in(
      "10 CONN a b up\n"
      "20 CONN a b up\n"
      "30 CONN a b down\n");
  const auto r = loadOneConnectivity(in);
  ASSERT_EQ(r.trace.contacts().size(), 2u);
  EXPECT_DOUBLE_EQ(r.trace.contacts()[0].duration, 10.0);
  EXPECT_DOUBLE_EQ(r.trace.contacts()[1].duration, 10.0);
}

TEST(OneFormat, SelfConnectionIgnored) {
  std::stringstream in("1 CONN x x up\n2 CONN x x down\n");
  const auto r = loadOneConnectivity(in);
  EXPECT_TRUE(r.trace.contacts().empty());
  EXPECT_EQ(r.ignoredLines, 2u);  // both the up and the down
}

TEST(OneFormat, EmptyInput) {
  std::stringstream in("");
  const auto r = loadOneConnectivity(in);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_EQ(r.trace.nodeCount(), 0u);
}

TEST(OneFormat, NegativeTimestampNamesTheLine) {
  std::stringstream in("0 CONN a b up\n-5 CONN a b down\n");
  try {
    loadOneConnectivity(in);
    FAIL() << "accepted a negative timestamp";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "negative timestamp on ONE trace line 2: -5 CONN a b down");
  }
}

TEST(OneFormat, MissingFileThrows) {
  EXPECT_THROW(loadOneConnectivityFile("/nonexistent/path.txt"), std::runtime_error);
}

TEST(OneFormat, SymmetricPairKeysMatchAcrossDirections) {
  // `down` reported with endpoints swapped must still close the contact.
  std::stringstream in(
      "10 CONN a b up\n"
      "25 CONN b a down\n");
  const auto r = loadOneConnectivity(in);
  ASSERT_EQ(r.trace.contacts().size(), 1u);
  EXPECT_DOUBLE_EQ(r.trace.contacts()[0].duration, 15.0);
  EXPECT_EQ(r.unmatchedDowns, 0u);
}

}  // namespace
}  // namespace dtncache::trace
