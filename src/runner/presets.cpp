#include "runner/presets.hpp"

#include <stdexcept>

#include "runner/config_io.hpp"
#include "trace/mobility.hpp"

namespace dtncache::runner {
namespace {

struct Preset {
  const char* name;
  trace::SyntheticTraceConfig trace;
  sim::SimTime refreshPeriod;
  double queriesPerNodePerDay;
  sim::SimTime queryDeadline;
};

const Preset kPresets[] = {
    {"reality", trace::realityLikeConfig(), sim::days(2), 1.0, sim::days(1)},
    {"infocom", trace::infocomLikeConfig(), sim::hours(6), 2.0, sim::hours(3)},
    {"mobility", trace::mobilityConfig(1000), sim::days(2), 1.0, sim::days(1)},
};

}  // namespace

ExperimentConfig presetConfig(const std::string& name, std::size_t nodes) {
  for (const auto& preset : kPresets) {
    if (name != preset.name) continue;
    ExperimentConfig config;
    config.trace = preset.trace;
    // Mobility scales its communities with N; the others only resize.
    if (nodes > 0 && name == "mobility") config.trace = trace::mobilityConfig(nodes);
    if (nodes > 0) config.trace.nodeCount = nodes;
    config.catalog.refreshPeriod = preset.refreshPeriod;
    config.workload.queriesPerNodePerDay = preset.queriesPerNodePerDay;
    config.workload.queryDeadline = preset.queryDeadline;
    return config;
  }
  throw std::invalid_argument("unknown trace preset '" + name + "' (" + kPresetNames + ")");
}

ExperimentConfig baseConfig(ArgParser& args) {
  const std::string file = args.getString(
      "--config", "", "experiment config JSON, as --dump-config writes it (not with --trace)");
  const std::string preset =
      args.getString("--trace", "infocom", std::string("preset: ") + kPresetNames);
  const auto nodes = args.getInt("--nodes", 0, "node count (0 = the preset's); mobility rescales");
  const double days = args.getDouble("--days", 0.0, "trace duration in days (0 = the preset's)");
  ExperimentConfig config;
  try {
    if (nodes < 0) throw std::invalid_argument("--nodes must be >= 0");
    if (!file.empty() && args.provided("--trace"))
      throw std::invalid_argument("--trace and --config are exclusive: the file names its trace");
    config = file.empty() ? presetConfig(preset, static_cast<std::size_t>(nodes))
                          : loadConfigFile(file);
  } catch (const std::exception& e) {
    args.addError(e.what());  // the caller stops before using `config`
  }
  if (nodes > 0) config.trace.nodeCount = static_cast<std::size_t>(nodes);
  if (days > 0.0) config.trace.duration = sim::days(days);
  return config;
}

}  // namespace dtncache::runner
