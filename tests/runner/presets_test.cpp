#include "runner/presets.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "runner/config_io.hpp"
#include "trace/mobility.hpp"

namespace dtncache::runner {
namespace {

std::string readGolden(const std::string& name) {
  std::ifstream in(std::string(DTNCACHE_RUNNER_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// baseConfig through a command line, and the errors it reports.
std::pair<ExperimentConfig, std::vector<std::string>> parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  auto config = baseConfig(args);
  return {config, args.errors()};
}

ExperimentConfig fromFlags(std::vector<const char*> argv) {
  auto [config, errors] = parse(std::move(argv));
  EXPECT_TRUE(errors.empty());
  return config;
}

void expectError(std::vector<const char*> argv, const std::string& text) {
  const auto errors = parse(std::move(argv)).second;
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find(text), std::string::npos) << errors[0];
}

// The golden files are the dumps of the configs every bench table and
// sweep preset was produced with before the presets had one home; byte
// equality proves no figure's inputs moved.
TEST(Presets, DumpTheRecordedBenchAndSweepConfigs) {
  for (const std::string name : {"reality", "infocom", "mobility"})
    EXPECT_EQ(dumpConfig(presetConfig(name)), readGolden("preset_" + name + ".json"))
        << name;
}

TEST(Presets, EveryListedNameIsAPreset) {
  std::istringstream names(kPresetNames);
  std::string name;
  std::size_t count = 0;
  while (names >> name) {
    if (name == "|") continue;
    EXPECT_NO_THROW(presetConfig(name)) << name;
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(Presets, UnknownNameIsAnError) {
  EXPECT_THROW(presetConfig("infocomm"), std::invalid_argument);
  expectError({"--trace=nope"}, "unknown trace preset 'nope' (reality | infocom | mobility)");
}

TEST(BaseConfig, DefaultsToTheInfocomPreset) {
  EXPECT_EQ(dumpConfig(fromFlags({})), dumpConfig(presetConfig("infocom")));
}

TEST(BaseConfig, NodesResizesFixedPresetsAndRegeneratesMobility) {
  for (const std::string name : {"reality", "infocom"}) {
    const std::string traceFlag = "--trace=" + name;
    ExperimentConfig expected = presetConfig(name);
    expected.trace.nodeCount = 50;
    EXPECT_EQ(dumpConfig(fromFlags({traceFlag.c_str(), "--nodes=50"})),
              dumpConfig(expected))
        << name;
  }
  ExperimentConfig mobility = presetConfig("mobility");
  mobility.trace = trace::mobilityConfig(200);
  const auto resized = fromFlags({"--trace=mobility", "--nodes=200"});
  EXPECT_EQ(dumpConfig(resized), dumpConfig(mobility));
  EXPECT_EQ(resized.trace.communities, 3u);  // scaled with N, not just relabelled
  EXPECT_EQ(dumpConfig(presetConfig("mobility", 200)), dumpConfig(mobility));
}

TEST(BaseConfig, NegativeNodesIsAnError) { expectError({"--nodes=-5"}, "--nodes must be >= 0"); }

TEST(BaseConfig, DaysOverridesTheDuration) {
  EXPECT_DOUBLE_EQ(fromFlags({"--trace=reality", "--days=2.5"}).trace.duration,
                   sim::days(2.5));
}

TEST(BaseConfig, ConfigFileTakesNodesAndDaysOnTop) {
  ExperimentConfig original = presetConfig("mobility", 300);
  original.catalog.itemCount = 13;
  const std::string path = ::testing::TempDir() + "base_config_test.json";
  saveConfigFile(original, path);
  const std::string configFlag = "--config=" + path;

  EXPECT_EQ(dumpConfig(fromFlags({configFlag.c_str()})), dumpConfig(original));
  const auto patched = fromFlags({configFlag.c_str(), "--nodes=40", "--days=1"});
  EXPECT_EQ(patched.trace.nodeCount, 40u);
  EXPECT_DOUBLE_EQ(patched.trace.duration, sim::days(1));
  EXPECT_EQ(patched.catalog.itemCount, 13u);
}

TEST(BaseConfig, TraceWithConfigIsAnError) {
  expectError({"--config=any.json", "--trace=infocom"}, "--trace and --config");
}

TEST(BaseConfig, UnreadableConfigIsAnError) {
  expectError({"--config=no_such_config.json"}, "cannot open config file");
}

TEST(SchemeNames, ParseEveryDisplayNameLowercased) {
  for (const auto kind : allSchemes()) {
    std::string lower = schemeName(kind);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    EXPECT_EQ(parseSchemeName(lower), kind) << lower;
  }
  EXPECT_FALSE(parseSchemeName("Hierarchical").has_value());
  EXPECT_FALSE(parseSchemeName("hierarchy").has_value());
}

}  // namespace
}  // namespace dtncache::runner
