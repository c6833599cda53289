#include "sweep/work_unit.hpp"

#include <iterator>
#include <sstream>

#include "runner/config_io.hpp"
#include "runner/flat_json.hpp"
#include "sim/assert.hpp"

namespace dtncache::sweep {
namespace {

constexpr const char* kMagicLine = "dtncache-sweep-manifest 1";

runner::SchemeKind schemeByName(const std::string& name) {
  for (const auto kind : runner::allSchemes())
    if (name == runner::schemeName(kind)) return kind;
  DTNCACHE_CHECK_MSG(false, "manifest names unknown scheme '" << name << "'");
  return runner::SchemeKind::kHierarchical;  // unreachable
}

std::uint64_t parseU64(const std::string& text, const char* what) {
  DTNCACHE_CHECK_MSG(!text.empty(), "manifest " << what << " is empty");
  std::uint64_t v = 0;
  for (const char c : text) {
    DTNCACHE_CHECK_MSG(c >= '0' && c <= '9',
                       "manifest " << what << " '" << text << "' is not a number");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

std::string encodeManifest(const SweepManifest& manifest) {
  std::ostringstream out;
  out << kMagicLine << '\n';
  out << "wall " << (manifest.wallClock ? 1 : 0) << '\n';
  out << "trace " << (manifest.traceEnabled ? 1 : 0) << '\n';
  out << "trace-filter " << manifest.traceFilter << '\n';
  if (!manifest.grid.schemes.empty()) {
    out << "schemes ";
    for (std::size_t i = 0; i < manifest.grid.schemes.size(); ++i)
      out << (i == 0 ? "" : ",") << runner::schemeName(manifest.grid.schemes[i]);
    out << '\n';
  }
  if (!manifest.grid.seeds.empty()) {
    out << "seeds ";
    for (std::size_t i = 0; i < manifest.grid.seeds.size(); ++i)
      out << (i == 0 ? "" : ",") << manifest.grid.seeds[i];
    out << '\n';
  }
  for (const auto& axis : manifest.grid.axes) {
    DTNCACHE_CHECK_MSG(axis.key.find_first_of("=;\n") == std::string::npos,
                       "axis key '" << axis.key << "' cannot be serialized");
    out << "axis " << axis.key << '=';
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      DTNCACHE_CHECK_MSG(axis.values[i].find_first_of(",;\n") == std::string::npos,
                         "axis value '" << axis.values[i] << "' cannot be serialized");
      out << (i == 0 ? "" : ",") << axis.values[i];
    }
    out << '\n';
  }
  // The base config closes the manifest: everything from here to EOF is the
  // dumpConfig JSON (multi-line), so no escaping is needed.
  out << "config\n" << runner::dumpConfig(manifest.grid.base);
  return out.str();
}

SweepManifest decodeManifest(const std::string& text) {
  SweepManifest manifest;
  std::istringstream in(text);
  std::string line;
  DTNCACHE_CHECK_MSG(std::getline(in, line) && line == kMagicLine,
                     "not a dtncache sweep manifest (or unsupported version)");
  bool sawConfig = false;
  while (std::getline(in, line)) {
    if (line == "config") {
      sawConfig = true;
      break;
    }
    const auto space = line.find(' ');
    DTNCACHE_CHECK_MSG(space != std::string::npos && space > 0,
                       "malformed manifest line '" << line << "'");
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (key == "wall") {
      manifest.wallClock = parseU64(value, "wall flag") != 0;
    } else if (key == "trace") {
      manifest.traceEnabled = parseU64(value, "trace flag") != 0;
    } else if (key == "trace-filter") {
      manifest.traceFilter = parseU64(value, "trace filter");
    } else if (key == "schemes") {
      for (const auto& name : runner::splitList(value, ','))
        manifest.grid.schemes.push_back(schemeByName(name));
    } else if (key == "seeds") {
      for (const auto& seed : runner::splitList(value, ','))
        manifest.grid.seeds.push_back(parseU64(seed, "seed"));
    } else if (key == "axis") {
      const auto clauses = runner::splitAssignments(value);
      DTNCACHE_CHECK_MSG(clauses.size() == 1, "malformed manifest axis '" << value << "'");
      const auto& [axisKey, values] = clauses.front();
      manifest.grid.axes.push_back({axisKey, runner::splitList(values, ',')});
      DTNCACHE_CHECK_MSG(!manifest.grid.axes.back().values.empty(),
                         "manifest axis '" << axisKey << "' has no values");
    } else {
      DTNCACHE_CHECK_MSG(false, "unknown manifest key '" << key << "'");
    }
  }
  DTNCACHE_CHECK_MSG(sawConfig, "manifest has no config section");
  std::string configJson((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  manifest.grid.base = runner::loadConfig(configJson);
  return manifest;
}

std::uint64_t sweepFingerprint(const std::string& manifestText) {
  return fnv1a64(manifestText);
}

std::vector<WorkUnit> workUnits(const std::vector<SweepJob>& jobs) {
  std::vector<WorkUnit> units;
  units.reserve(jobs.size());
  for (const auto& job : jobs)
    units.push_back(WorkUnit{static_cast<std::uint64_t>(job.index),
                             configFingerprintU64(job.config),
                             static_cast<std::uint64_t>(job.config.seed)});
  return units;
}

}  // namespace dtncache::sweep
