#pragma once

/// \file common.hpp
/// Shared helpers for the C++ sections of the figure pipeline (bench_*).
/// scripts/figures.py prints each figure's banner and runs these binaries
/// at their place in its figure list (see EXPERIMENTS.md); they start from
/// the presets of runner/presets.hpp, the same scenarios the CLIs run.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "metrics/report.hpp"
#include "runner/presets.hpp"
#include "sweep/sweep_engine.hpp"

namespace dtncache::bench {

/// `--jobs N` for the sweep-backed benches (0 = one worker per hardware
/// core). Cells of an experiment grid are independent simulations; the
/// sweep engine aggregates them in grid order, so the printed tables are
/// identical at any jobs count — only wall-clock changes.
inline std::size_t jobsArg(int argc, char** argv) {
  runner::ArgParser args(argc, argv);
  const auto jobs = args.getInt("--jobs", 0, "worker threads (0 = hardware cores)");
  if (const auto status = args.finish(argv[0])) std::exit(*status);
  return jobs < 0 ? 0 : static_cast<std::size_t>(jobs);
}

inline std::string mb(std::uint64_t bytes) {
  return metrics::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

}  // namespace dtncache::bench
