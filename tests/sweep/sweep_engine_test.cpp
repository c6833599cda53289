#include "sweep/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "sweep/result_sink.hpp"

namespace dtncache::sweep {
namespace {

/// Small, fast experiment: 15 nodes, 3 days, dense contacts.
runner::ExperimentConfig tinyConfig() {
  runner::ExperimentConfig cfg;
  cfg.trace = trace::homogeneousConfig(15, 6.0, sim::days(3), 9);
  cfg.catalog.itemCount = 3;
  cfg.catalog.refreshPeriod = sim::hours(12);
  cfg.workload.queriesPerNodePerDay = 2.0;
  cfg.cache.cachingNodesPerItem = 5;
  cfg.estimatorWarmup = sim::days(1);
  return cfg;
}

TEST(ExpandGrid, DefaultGridIsOneJob) {
  SweepGrid grid;
  grid.base = tinyConfig();
  const auto jobs = expandGrid(grid);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].index, 0u);
  EXPECT_EQ(jobs[0].config.seed, grid.base.seed);
  EXPECT_TRUE(jobs[0].overrides.empty());
}

TEST(ExpandGrid, AxesOuterSchemesThenSeedsInner) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.schemes = {runner::SchemeKind::kEpidemic, runner::SchemeKind::kSourceDirect};
  grid.seeds = {1, 2};
  grid.axes = {{"catalog.itemCount", {"3", "5"}}};
  const auto jobs = expandGrid(grid);
  ASSERT_EQ(jobs.size(), 8u);

  // Axis outermost, scheme next, seed innermost.
  EXPECT_EQ(jobs[0].config.catalog.itemCount, 3u);
  EXPECT_EQ(jobs[0].config.scheme, runner::SchemeKind::kEpidemic);
  EXPECT_EQ(jobs[0].config.seed, 1u);
  EXPECT_EQ(jobs[1].config.seed, 2u);
  EXPECT_EQ(jobs[2].config.scheme, runner::SchemeKind::kSourceDirect);
  EXPECT_EQ(jobs[4].config.catalog.itemCount, 5u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    ASSERT_EQ(jobs[i].overrides.size(), 1u);
    EXPECT_EQ(jobs[i].overrides[0].first, "catalog.itemCount");
  }
  EXPECT_EQ(jobs[0].overrides[0].second, "3");
  EXPECT_EQ(jobs[7].overrides[0].second, "5");
}

TEST(ExpandGrid, TwoAxesLastAxisFastest) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.axes = {{"catalog.itemCount", {"2", "4"}},
               {"cache.cachingNodesPerItem", {"3", "6"}}};
  const auto jobs = expandGrid(grid);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].config.catalog.itemCount, 2u);
  EXPECT_EQ(jobs[0].config.cache.cachingNodesPerItem, 3u);
  EXPECT_EQ(jobs[1].config.cache.cachingNodesPerItem, 6u);
  EXPECT_EQ(jobs[2].config.catalog.itemCount, 4u);
  EXPECT_EQ(jobs[3].config.cache.cachingNodesPerItem, 6u);
}

TEST(ExpandGrid, UnknownAxisKeyThrowsBeforeAnythingRuns) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.axes = {{"catalog.itemCuont", {"3"}}};  // typo
  EXPECT_THROW(expandGrid(grid), InvariantViolation);
}

TEST(ExpandGrid, EmptyAxisIsRejected) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.axes = {{"catalog.itemCount", {}}};
  EXPECT_THROW(expandGrid(grid), InvariantViolation);
}

TEST(JsonScalarTest, NumbersAndBooleansPassThroughStringsQuoted) {
  EXPECT_EQ(jsonScalar("3"), "3");
  EXPECT_EQ(jsonScalar("-0.5e3"), "-0.5e3");
  EXPECT_EQ(jsonScalar("true"), "true");
  EXPECT_EQ(jsonScalar("false"), "false");
  EXPECT_EQ(jsonScalar("epidemic"), "\"epidemic\"");
  EXPECT_EQ(jsonScalar("we\"ird"), "\"we\\\"ird\"");
}

TEST(RecordFields, TextValuesAreJsonEscaped) {
  JobResult result;
  result.job.config = tinyConfig();
  result.job.overrides = {{"label", "a\"b\\c\nd"}};
  result.output.scheme = "We\"ird";
  int seen = 0;
  for (const RecordField& f : recordFields(result, false)) {
    if (f.key == "label") {
      EXPECT_EQ(f.json, "\"a\\\"b\\\\c\\nd\"");
      EXPECT_EQ(f.csv, "a\"b\\c\nd");
      ++seen;
    } else if (f.key == "scheme") {
      EXPECT_EQ(f.json, "\"We\\\"ird\"");
      ++seen;
    }
  }
  EXPECT_EQ(seen, 2);
}

/// The load-balance and per-category columns are computed from the run's
/// transfer log: a known per-node refresh vector {10, 20, 30, 40} has
/// mean 25, so peak/mean 1.6; Gini 2·300/(4·100) − 5/4 = 0.25; and the
/// busiest max(1, 4/10) = 1 node sends 40 of 100 bytes.
TEST(RecordFields, LoadStatsAndMessageCountsLandInTheirColumns) {
  JobResult result;
  result.job.config = tinyConfig();
  auto& log = result.output.results.transfers;
  log = net::TransferLog(4);
  for (NodeId node = 0; node < 4; ++node)
    log.record(net::Traffic::kRefresh, 10 * (node + 1), node);
  for (int i = 0; i < 3; ++i) log.record(net::Traffic::kControl, 7, 0);
  log.record(net::Traffic::kReply, 5, 3);
  log.record(net::Traffic::kReply, 5, 2);
  log.record(net::Traffic::kPull, 9, 1);

  std::map<std::string, std::string> json;
  for (const RecordField& f : recordFields(result, false)) json[f.key] = f.json;
  EXPECT_DOUBLE_EQ(std::stod(json.at("refresh_load_peak_to_mean")), 1.6);
  EXPECT_DOUBLE_EQ(std::stod(json.at("refresh_load_gini")), 0.25);
  EXPECT_DOUBLE_EQ(std::stod(json.at("refresh_load_top10_share")), 0.4);
  EXPECT_EQ(json.at("messages_control"), "3");
  EXPECT_EQ(json.at("messages_refresh"), "4");
  EXPECT_EQ(json.at("messages_placement"), "0");
  EXPECT_EQ(json.at("messages_query"), "0");
  EXPECT_EQ(json.at("messages_reply"), "2");
  EXPECT_EQ(json.at("messages_pull"), "1");
  EXPECT_EQ(json.at("messages_total"), "10");
  EXPECT_EQ(json.at("bytes_refresh"), "100");
}

TEST(Fingerprint, IdentifiesConfigsNotRuns) {
  auto a = tinyConfig();
  auto b = tinyConfig();
  EXPECT_EQ(configFingerprint(a), configFingerprint(b));
  b.seed += 1;
  EXPECT_NE(configFingerprint(a), configFingerprint(b));
  EXPECT_EQ(configFingerprint(a).size(), 16u);
}

/// The tentpole guarantee: a 2-scheme × 4-seed sweep produces byte-identical
/// JSONL at jobs=1 and jobs=4 (wall-clock fields suppressed — they are the
/// one intentionally nondeterministic part of a record).
TEST(SweepEngine, JsonlIsByteIdenticalAcrossJobCounts) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.schemes = {runner::SchemeKind::kEpidemic, runner::SchemeKind::kSourceDirect};
  grid.seeds = {1, 2, 3, 4};

  const auto runAt = [&grid](std::size_t jobs) {
    std::ostringstream jsonl;
    JsonlSink sink(jsonl, /*wallClock=*/false);
    SweepEngine engine(SweepOptions{jobs, /*progress=*/false});
    engine.run(grid, {&sink});
    return jsonl.str();
  };

  const std::string serial = runAt(1);
  const std::string parallel = runAt(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 8);
  EXPECT_EQ(serial, parallel);
}

TEST(SweepEngine, ResultsArriveInJobIndexOrderWithOutputs) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.seeds = {1, 2, 3};
  SweepEngine engine(SweepOptions{3, false});
  const auto results = engine.run(grid);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].job.index, i);
    EXPECT_EQ(results[i].job.config.seed, i + 1);
    EXPECT_GT(results[i].output.results.meanFreshFraction, 0.0);
    EXPECT_GE(results[i].wallSeconds, 0.0);
  }
}

TEST(CsvSinkTest, NoNanCellsEvenWithZeroQueries) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.base.workload.queriesPerNodePerDay = 0.0;  // every query ratio is 0/0
  std::ostringstream csv;
  CsvSink sink(csv);
  SweepEngine engine(SweepOptions{1, false});
  engine.run(grid, {&sink});
  const std::string text = csv.str();
  EXPECT_NE(text.find("valid_ratio"), std::string::npos);
  // Check whole cells, not substrings: column names may legitimately
  // contain "nan" (ctr.core.maintenance.runs).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream cells(line);
    std::string cell;
    while (std::getline(cells, cell, ',')) {
      EXPECT_NE(cell, "nan") << line;
      EXPECT_NE(cell, "-nan") << line;
      EXPECT_NE(cell, "inf") << line;
      EXPECT_NE(cell, "-inf") << line;
    }
  }
}

}  // namespace
}  // namespace dtncache::sweep
