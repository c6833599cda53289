#include "runner/config_io.hpp"

#include <gtest/gtest.h>

#include "runner/flat_json.hpp"

namespace dtncache::runner {
namespace {

TEST(ConfigIo, RoundTripPreservesEveryField) {
  ExperimentConfig original;
  original.trace = trace::infocomLikeConfig(9);
  original.catalog.itemCount = 17;
  original.catalog.refreshPeriod = sim::hours(7);
  original.workload.queriesPerNodePerDay = 3.5;
  original.workload.zipfExponent = 1.3;
  original.cache.cachingNodesPerItem = 11;
  original.network.contactLossRate = 0.25;
  original.estimator.mode = trace::EstimatorMode::kSlidingWindow;
  original.estimator.window = sim::days(2);
  original.allocation = cache::AllocationPolicy::kSqrt;
  original.scheme = SchemeKind::kEpidemic;
  original.hierarchical.hierarchy.fanoutBound = 5;
  original.hierarchical.replication.theta = 0.93;
  original.hierarchical.maintenance = core::MaintenanceMode::kStatic;
  original.hierarchical.relayAssisted = false;
  original.churnEnabled = true;
  original.churn.meanDowntime = sim::hours(13);
  original.energyEnabled = true;
  original.energy.batteryJoules = 432.0;
  original.seed = 77;

  const auto back = loadConfig(dumpConfig(original));

  EXPECT_EQ(back.trace.nodeCount, original.trace.nodeCount);
  EXPECT_DOUBLE_EQ(back.trace.duration, original.trace.duration);
  EXPECT_EQ(back.trace.model, original.trace.model);
  EXPECT_DOUBLE_EQ(back.trace.nightActivity, original.trace.nightActivity);
  EXPECT_EQ(back.catalog.itemCount, 17u);
  EXPECT_DOUBLE_EQ(back.catalog.refreshPeriod, sim::hours(7));
  EXPECT_DOUBLE_EQ(back.workload.queriesPerNodePerDay, 3.5);
  EXPECT_EQ(back.cache.cachingNodesPerItem, 11u);
  EXPECT_DOUBLE_EQ(back.network.contactLossRate, 0.25);
  EXPECT_EQ(back.estimator.mode, trace::EstimatorMode::kSlidingWindow);
  EXPECT_EQ(back.allocation, cache::AllocationPolicy::kSqrt);
  EXPECT_EQ(back.scheme, SchemeKind::kEpidemic);
  EXPECT_EQ(back.hierarchical.hierarchy.fanoutBound, 5u);
  EXPECT_DOUBLE_EQ(back.hierarchical.replication.theta, 0.93);
  EXPECT_EQ(back.hierarchical.maintenance, core::MaintenanceMode::kStatic);
  EXPECT_FALSE(back.hierarchical.relayAssisted);
  EXPECT_TRUE(back.churnEnabled);
  EXPECT_DOUBLE_EQ(back.churn.meanDowntime, sim::hours(13));
  EXPECT_TRUE(back.energyEnabled);
  EXPECT_DOUBLE_EQ(back.energy.batteryJoules, 432.0);
  EXPECT_EQ(back.seed, 77u);
}

TEST(ConfigIo, RoundTripProducesIdenticalRuns) {
  ExperimentConfig original;
  original.trace = trace::homogeneousConfig(12, 5.0, sim::days(4), 3);
  original.catalog.itemCount = 3;
  original.catalog.refreshPeriod = sim::hours(8);
  original.workload.queriesPerNodePerDay = 2.0;
  original.cache.cachingNodesPerItem = 5;
  const auto back = loadConfig(dumpConfig(original));
  const auto a = runExperiment(original);
  const auto b = runExperiment(back);
  EXPECT_DOUBLE_EQ(a.results.meanFreshFraction, b.results.meanFreshFraction);
  EXPECT_EQ(a.results.transfers.total().bytes, b.results.transfers.total().bytes);
}

TEST(ConfigIo, PartialConfigKeepsDefaults) {
  const auto c = loadConfig(R"({"catalog.itemCount": 4, "scheme": "flooding"})");
  EXPECT_EQ(c.catalog.itemCount, 4u);
  EXPECT_EQ(c.scheme, SchemeKind::kFlooding);
  EXPECT_EQ(c.cache.cachingNodesPerItem, ExperimentConfig{}.cache.cachingNodesPerItem);
}

TEST(ConfigIo, EmptyObjectIsAllDefaults) {
  const auto c = loadConfig("{}");
  EXPECT_EQ(c.scheme, ExperimentConfig{}.scheme);
}

TEST(ConfigIo, UnknownKeyRejected) {
  EXPECT_THROW(loadConfig(R"({"catalogg.itemCount": 4})"), InvariantViolation);
}

TEST(ConfigIo, UnknownKeySuggestsNearestValidKey) {
  try {
    loadConfig(R"({"cache.warmStarts": true})");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown config key 'cache.warmStarts'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'cache.warmStart'"), std::string::npos)
        << message;
  }
}

TEST(ConfigIo, UnknownKeyFarFromEverythingGetsNoSuggestion) {
  try {
    loadConfig(R"({"zzz.qqq": 1})");
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown config key 'zzz.qqq'"), std::string::npos) << message;
    EXPECT_EQ(message.find("did you mean"), std::string::npos) << message;
  }
}

TEST(ConfigIo, TypeMismatchRejected) {
  EXPECT_THROW(loadConfig(R"({"catalog.itemCount": "four"})"), InvariantViolation);
  EXPECT_THROW(loadConfig(R"({"cache.warmStart": 1})"), InvariantViolation);
  EXPECT_THROW(loadConfig(R"({"scheme": true})"), InvariantViolation);
}

TEST(ConfigIo, NonIntegralIntegerRejected) {
  EXPECT_THROW(loadConfig(R"({"catalog.itemCount": 4.5})"), InvariantViolation);
}

// A value the field's integer type cannot hold is rejected at load, naming
// the key and the value, instead of wrapping around (a negative count) or
// casting with undefined behaviour (1e30 into a size_t).
TEST(ConfigIo, OutOfRangeIntegerRejectedWithKeyAndValue) {
  const auto rejects = [](const std::string& json, const std::string& key,
                          const std::string& value) {
    try {
      loadConfig(json);
      ADD_FAILURE() << "expected InvariantViolation for " << json;
    } catch (const InvariantViolation& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("key '" + key + "' value " + value + " is out of range"),
                std::string::npos)
          << message;
    }
  };
  rejects(R"({"cache.cachingNodesPerItem": -3})", "cache.cachingNodesPerItem", "-3");
  rejects(R"({"sim.shards": -2})", "sim.shards", "-2");
  rejects(R"({"catalog.itemCount": 1e30})", "catalog.itemCount", "1e+30");
  // The largest values a size_t field holds exactly still load.
  EXPECT_EQ(loadConfig(R"({"sim.shards": 0})").shards, 0u);
  EXPECT_EQ(loadConfig(R"({"catalog.itemCount": 4503599627370496})").catalog.itemCount,
            4503599627370496u);
}

// A literal beyond double range is rejected naming the key and the literal,
// and a number with no digits is reported as malformed, not as a bare
// "stod" from the standard library.
TEST(ConfigIo, NumberBeyondDoubleRangeRejectedWithKeyAndLiteral) {
  const auto message = [](const std::string& json) -> std::string {
    try {
      loadConfig(json);
    } catch (const InvariantViolation& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected InvariantViolation for " << json;
    return "";
  };
  for (const std::string literal : {"1e999", "-1e999"}) {
    const std::string m = message(R"({"seed": )" + literal + "}");
    EXPECT_NE(m.find("key 'seed' value " + literal + " is out of range"), std::string::npos)
        << m;
  }
  const std::string m = message(R"({"seed": -})");
  EXPECT_NE(m.find("malformed number '-'"), std::string::npos) << m;
}

// Every rejection of config input is one plain line naming the key and the
// value as given (4294967299, not 4.29497e+09): no check text, no source
// location, so a CLI prints it as is.
TEST(ConfigIo, RejectionsArePlainLinesNamingKeyAndValue) {
  const auto message = [](const std::string& json) -> std::string {
    try {
      loadConfig(json);
    } catch (const InvariantViolation& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected InvariantViolation for " << json;
    return "";
  };
  const std::pair<const char*, const char*> cases[] = {
      {R"({"seed": -})", "config JSON at key 'seed': malformed number '-'"},
      {R"({"seed": 1)", "config JSON after key 'seed' value 1: unexpected end of input"},
      {R"({"seed": 1} x)",
       "config JSON after key 'seed' value 1: trailing characters after the closing '}'"},
      {R"({"seed" 1})", "config JSON at key 'seed': expected ':' at offset 8, found '1'"},
      {R"({"trace.nodeCount": 4294967299.5})",
       "key 'trace.nodeCount' value 4294967299.5 must be an integer"},
      {R"({"cache.cachingNodesPerItem": -3})",
       "key 'cache.cachingNodesPerItem' value -3 is out of range for its type "
       "(0 to 18446744073709551615)"},
      {R"({"cache.warmStart": 1})", "key 'cache.warmStart' value 1 must be true or false"},
      {R"({"seed": "4"})", R"(key 'seed' value "4" must be a number)"},
      {R"({"scheme": "telepathy"})",
       R"(key 'scheme' value "telepathy" is not one of hierarchical, norefresh, )"
       "sourcedirect, epidemic, flooding, pull, invalidation"},
      {R"({"cache.warmStarts": true})",
       "unknown config key 'cache.warmStarts'; did you mean 'cache.warmStart'?"},
  };
  for (const auto& [json, expected] : cases) EXPECT_EQ(message(json), expected) << json;
}

// `--set` clauses: split on ';', each on its first '=', so a value keeps
// its commas and '=' signs; a clause without a key or '=' is rejected.
TEST(FlatJson, SplitAssignmentsKeepsCommasAndEqualsInValues) {
  const auto clauses = splitAssignments("peer.peers=h:1,h:2;;x=y=z;seed=;");
  ASSERT_EQ(clauses.size(), 3u);
  EXPECT_EQ(clauses[0].first, "peer.peers");
  EXPECT_EQ(clauses[0].second, "h:1,h:2");
  EXPECT_EQ(clauses[1].first, "x");
  EXPECT_EQ(clauses[1].second, "y=z");
  EXPECT_EQ(clauses[2].first, "seed");
  EXPECT_EQ(clauses[2].second, "");
  EXPECT_TRUE(splitAssignments("").empty());
  for (const std::string bad : {"seed", "=4", "seed=4;theta"}) {
    try {
      splitAssignments(bad);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const InvariantViolation& e) {
      EXPECT_EQ(std::string(e.what()).rfind("clause '", 0), 0u) << e.what();
    }
  }
}

// Only what the flat-JSON reader takes as a number passes unquoted, so
// "0x10" or "nan" reach the binder as strings and get its plain message.
TEST(FlatJson, AssignmentsJsonQuotesWhatIsNotANumber) {
  EXPECT_EQ(assignmentsJson({{"seed", "4"},
                             {"theta", "-0.5e3"},
                             {"scheme", "epidemic"},
                             {"hex", "0x10"},
                             {"nan", "nan"},
                             {"flag", "true"},
                             {"q\"k", ""}}),
            R"({"seed": 4, "theta": -0.5e3, "scheme": "epidemic", "hex": "0x10", )"
            R"("nan": "nan", "flag": true, "q\"k": ""})");
  ExperimentConfig config;
  try {
    applyConfigJson(config, assignmentsJson({{"seed", "0x10"}}));
    ADD_FAILURE() << "seed=0x10 accepted";
  } catch (const InvariantViolation& e) {
    EXPECT_STREQ(e.what(), R"(key 'seed' value "0x10" must be a number)");
  }
}

TEST(ConfigIo, SetClausesLoadLikeAConfigFile) {
  ExperimentConfig config = loadConfig("{}");
  applyConfigJson(config, assignmentsJson(splitAssignments(
                              "seed=4;scheme=epidemic;hierarchical.relayAssisted=false;"
                              "catalog.refreshPeriodSeconds=21600")));
  EXPECT_EQ(config.seed, 4u);
  EXPECT_EQ(config.scheme, SchemeKind::kEpidemic);
  EXPECT_FALSE(config.hierarchical.relayAssisted);
  EXPECT_EQ(config.catalog.refreshPeriod, sim::hours(6));
}

TEST(ConfigIo, UnknownEnumValueRejected) {
  EXPECT_THROW(loadConfig(R"({"scheme": "telepathy"})"), InvariantViolation);
}

TEST(ConfigIo, MalformedJsonRejected) {
  EXPECT_THROW(loadConfig(""), InvariantViolation);
  EXPECT_THROW(loadConfig("{"), InvariantViolation);
  EXPECT_THROW(loadConfig(R"({"a": 1,})"), InvariantViolation);
  EXPECT_THROW(loadConfig(R"({"a": 1} trailing)"), InvariantViolation);
}

TEST(ConfigIo, WhitespaceAndEscapesTolerated) {
  const auto c = loadConfig("  {\n\t\"seed\" :\t42 \n}  \n");
  EXPECT_EQ(c.seed, 42u);
}

TEST(ConfigIo, FileRoundTrip) {
  ExperimentConfig original;
  original.seed = 123;
  original.catalog.itemCount = 6;
  const std::string path = "/tmp/dtncache_config_test.json";
  saveConfigFile(original, path);
  const auto back = loadConfigFile(path);
  EXPECT_EQ(back.seed, 123u);
  EXPECT_EQ(back.catalog.itemCount, 6u);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(loadConfigFile("/nonexistent/cfg.json"), InvariantViolation);
}

}  // namespace
}  // namespace dtncache::runner
