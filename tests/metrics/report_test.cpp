#include "metrics/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sim/assert.hpp"

namespace dtncache::metrics {
namespace {

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456), "1.235");
  EXPECT_EQ(fmt(1.0, 1), "1.0");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Fmt, NegativeAndZero) {
  EXPECT_EQ(fmt(-2.5, 1), "-2.5");
  EXPECT_EQ(fmt(0.0, 2), "0.00");
}

TEST(Table, AlignedOutputContainsAllCells) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"}).addRow({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, ColumnsAlignAcrossRows) {
  Table t({"a", "long_header"});
  t.addRow({"xxxxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  std::istringstream in(os.str());
  std::string header, rule, row;
  std::getline(in, header);
  std::getline(in, rule);
  std::getline(in, row);
  // The second column must start at the same offset in header and row.
  EXPECT_EQ(header.find("long_header"), row.find("1"));
}

TEST(TimeSeriesCsv, WritesHeaderAndAlignedRows) {
  sim::TimeSeries a;
  sim::TimeSeries b;
  for (int i = 0; i <= 10; ++i) {
    a.record(sim::days(i), 0.1 * i);
    b.record(sim::days(i), 1.0 - 0.1 * i);
  }
  const std::string path = "/tmp/dtncache_series_test.csv";
  writeTimeSeriesCsv(path, {{"up", a}, {"down", b}}, 5);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_days,up,down");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 5u);
}

TEST(TimeSeriesCsv, EmptySeriesListRejected) {
  EXPECT_THROW(writeTimeSeriesCsv("/tmp/x.csv", {}), InvariantViolation);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), InvariantViolation);
}

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), InvariantViolation);
}

}  // namespace
}  // namespace dtncache::metrics
