#pragma once

/// \file common.hpp
/// Shared configuration for the experiment harnesses (bench_*). Each bench
/// reproduces one table/figure of the paper (see DESIGN.md / EXPERIMENTS.md);
/// they all start from these two trace scenarios so results are comparable
/// across experiments.
///
/// Refresh periods are scaled to trace density (as the paper scales its
/// TTLs per trace): the Reality-like campus trace is ~40x sparser than the
/// Infocom-like conference trace, so items refresh every 2 days vs 6 hours.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "metrics/report.hpp"
#include "runner/args.hpp"
#include "runner/experiment.hpp"
#include "sweep/sweep_engine.hpp"

namespace dtncache::bench {

/// `--jobs N` for the sweep-backed benches (0 = one worker per hardware
/// core). Cells of an experiment grid are independent simulations; the
/// sweep engine aggregates them in grid order, so the printed tables are
/// identical at any jobs count — only wall-clock changes.
inline std::size_t jobsArg(int argc, char** argv) {
  runner::ArgParser args(argc, argv);
  const auto jobs = args.getInt("--jobs", 0, "worker threads (0 = hardware cores)");
  if (args.helpRequested()) {
    std::cout << args.helpText(argv[0]);
    std::exit(0);
  }
  for (const auto& e : args.errors()) std::cerr << "warning: " << e << "\n";
  return jobs < 0 ? 0 : static_cast<std::size_t>(jobs);
}

inline runner::ExperimentConfig realityConfig(std::uint64_t seed = 1) {
  runner::ExperimentConfig c;
  c.trace = trace::realityLikeConfig(seed);
  c.catalog.itemCount = 10;
  c.catalog.refreshPeriod = sim::days(2);
  c.workload.queriesPerNodePerDay = 1.0;
  c.workload.queryDeadline = sim::days(1);
  c.cache.cachingNodesPerItem = 8;
  c.seed = seed;
  return c;
}

inline runner::ExperimentConfig infocomConfig(std::uint64_t seed = 1) {
  runner::ExperimentConfig c;
  c.trace = trace::infocomLikeConfig(seed);
  c.catalog.itemCount = 10;
  c.catalog.refreshPeriod = sim::hours(6);
  c.workload.queriesPerNodePerDay = 2.0;
  c.workload.queryDeadline = sim::hours(3);
  c.cache.cachingNodesPerItem = 8;
  c.seed = seed;
  return c;
}

inline std::string mb(std::uint64_t bytes) {
  return metrics::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n=== " << id << ": " << title << " ===\n";
}

}  // namespace dtncache::bench
