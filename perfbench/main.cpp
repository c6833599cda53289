/// \file main.cpp
/// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--one-cycle]
///           [--out-dir DIR]
///
/// Runs one workload in this process and prints, as the last line of stdout,
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}:
/// the end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1. Usage errors and a non-Release build exit 2 without a result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: perfbench --workload infocom-schemes|reality-maintenance|"
               "mobility-20k|peerd-fleet --seed N --seconds S --trace 0|1 "
               "[--one-cycle] [--out-dir DIR]\n";
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--one-cycle") {
      options.oneCycle = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        haveWorkload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0.0) || options.seconds > 600.0) usage("--seconds out of range");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--out-dir") {
        options.outDir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (options.workload != "peerd-fleet" && !perfbench::isSimWorkload(options.workload))
    usage("unknown workload " + options.workload);
  return options;
}

void printNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseArgs(argc, argv);
  if (!perfbench::releaseBuild()) {
    std::cerr << "error: perfbench refuses a non-Release build (built as "
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 2;
  }
  std::printf("host %s\n", perfbench::hostStampJson().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.oneCycle ? " one-cycle" : "");
  std::fflush(stdout);

  RunResult result;
  try {
    result = options.workload == "peerd-fleet" ? perfbench::runPeerdFleet(options)
                                               : perfbench::runSimWorkload(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << options.workload << " could not run: " << e.what() << "\n";
    return 1;
  }

  for (const auto& line : result.notes) std::printf("%s\n", line.c_str());
  for (const auto& line : result.warnings) std::printf("warning: %s\n", line.c_str());
  std::printf("ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct && result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    printNumber(metric.value);
    std::printf(", \"unit\": \"%s\"}", metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
