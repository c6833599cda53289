#include "trace/contact.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/assert.hpp"

namespace dtncache::trace {
namespace {

ContactTrace makeSmallTrace() {
  std::vector<Contact> cs = {
      {10.0, 5.0, 1, 0},  // endpoints deliberately unordered
      {0.0, 2.0, 0, 2},
      {20.0, 1.0, 1, 2},
      {25.0, 3.0, 0, 1},
  };
  return ContactTrace(3, std::move(cs));
}

TEST(ContactTrace, NormalizesAndSorts) {
  const auto t = makeSmallTrace();
  ASSERT_EQ(t.contacts().size(), 4u);
  EXPECT_DOUBLE_EQ(t.contacts().front().start, 0.0);
  EXPECT_DOUBLE_EQ(t.contacts().back().start, 25.0);
  for (const auto& c : t.contacts()) EXPECT_LT(c.a, c.b);
}

TEST(ContactTrace, UnopenableCsvFileThrowsRuntimeError) {
  // Outside input, not a broken invariant: a plain runtime_error.
  try {
    ContactTrace::loadCsv("/nonexistent/trace.csv");
    FAIL() << "loadCsv did not throw";
  } catch (const InvariantViolation&) {
    FAIL() << "loadCsv reported a missing file as an invariant violation";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cannot open trace file /nonexistent/trace.csv");
  }
  EXPECT_THROW(ContactTrace(2, {}).saveCsv("/nonexistent/dir/trace.csv"), std::runtime_error);
}

TEST(ContactTrace, DurationIsLastContactEnd) {
  const auto t = makeSmallTrace();
  EXPECT_DOUBLE_EQ(t.duration(), 28.0);
}

TEST(ContactTrace, EmptyTrace) {
  ContactTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.duration(), 0.0);
}

TEST(ContactTrace, PairCounts) {
  const auto t = makeSmallTrace();
  EXPECT_EQ(t.pairContactCount(0, 1), 2u);
  EXPECT_EQ(t.pairContactCount(1, 0), 2u);  // symmetric
  EXPECT_EQ(t.pairContactCount(0, 2), 1u);
  EXPECT_EQ(t.pairContactCount(1, 2), 1u);
}

TEST(ContactTrace, PairRate) {
  const auto t = makeSmallTrace();
  EXPECT_DOUBLE_EQ(t.pairRate(0, 1), 2.0 / 28.0);
}

TEST(ContactTrace, StatsAggregates) {
  const auto s = makeSmallTrace().stats();
  EXPECT_EQ(s.nodeCount, 3u);
  EXPECT_EQ(s.contactCount, 4u);
  EXPECT_EQ(s.pairsThatMet, 3u);
  EXPECT_DOUBLE_EQ(s.meanContactDuration, (5.0 + 2.0 + 1.0 + 3.0) / 4.0);
}

TEST(ContactTrace, TruncatedKeepsEarlyContacts) {
  const auto t = makeSmallTrace().truncated(15.0);
  EXPECT_EQ(t.contacts().size(), 2u);
  EXPECT_EQ(t.nodeCount(), 3u);
}

TEST(ContactTrace, RejectsOutOfRangeEndpoint) {
  std::vector<Contact> cs = {{0.0, 1.0, 0, 5}};
  EXPECT_THROW(ContactTrace(3, std::move(cs)), InvariantViolation);
}

TEST(ContactTrace, RejectsSelfContact) {
  std::vector<Contact> cs = {{0.0, 1.0, 2, 2}};
  EXPECT_THROW(ContactTrace(3, std::move(cs)), InvariantViolation);
}

TEST(ContactTrace, CsvRoundTrip) {
  const auto t = makeSmallTrace();
  std::stringstream ss;
  t.writeCsv(ss);
  const auto back = ContactTrace::readCsv(ss);
  ASSERT_EQ(back.contacts().size(), t.contacts().size());
  for (std::size_t i = 0; i < t.contacts().size(); ++i) {
    EXPECT_DOUBLE_EQ(back.contacts()[i].start, t.contacts()[i].start);
    EXPECT_DOUBLE_EQ(back.contacts()[i].duration, t.contacts()[i].duration);
    EXPECT_EQ(back.contacts()[i].a, t.contacts()[i].a);
    EXPECT_EQ(back.contacts()[i].b, t.contacts()[i].b);
  }
}

TEST(ContactTrace, CsvMalformedLineThrows) {
  std::stringstream ss("start,duration,a,b\nnot,a,number,row\n");
  EXPECT_THROW(ContactTrace::readCsv(ss), std::runtime_error);
}

TEST(ContactTrace, CsvSelfContactOrNegativeTimeIsMalformed) {
  for (const char* row : {"5,60,2,2", "-1,60,0,1", "5,-60,0,1"}) {
    SCOPED_TRACE(row);
    std::stringstream ss(std::string("start,duration,a,b\n") + row + "\n");
    try {
      ContactTrace::readCsv(ss);
      FAIL() << "readCsv accepted the row";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), std::string("malformed trace line: ") + row);
    }
  }
}

// The node count is the largest id + 1, so one stray id would allocate
// per-node state for billions of nodes: ids at or above kMaxTraceNodes are
// rejected with the line number and text, the largest allowed id loads.
TEST(ContactTrace, CsvNodeIdAboveTheLimitNamesTheLine) {
  std::stringstream bad("start,duration,a,b\n0,60,0,1\n100,60,1,4000000000\n");
  try {
    ContactTrace::readCsv(bad);
    FAIL() << "readCsv accepted node id 4000000000";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "node id 4000000000 above the limit 999999 on trace line 3: "
              "100,60,1,4000000000");
  }
  std::stringstream edge("0,60,999999,0\n");
  EXPECT_EQ(ContactTrace::readCsv(edge).nodeCount(), std::size_t{kMaxTraceNodes});
  std::stringstream over("0,60,1000000,0\n");
  EXPECT_THROW(ContactTrace::readCsv(over), std::runtime_error);
}

TEST(Contact, PeerOfAndInvolves) {
  Contact c{0.0, 1.0, 3, 7};
  EXPECT_TRUE(c.involves(3));
  EXPECT_TRUE(c.involves(7));
  EXPECT_FALSE(c.involves(5));
  EXPECT_EQ(c.peerOf(3), 7u);
  EXPECT_EQ(c.peerOf(7), 3u);
}

}  // namespace
}  // namespace dtncache::trace
