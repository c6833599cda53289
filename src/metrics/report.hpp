#pragma once

/// \file report.hpp
/// Aligned-column table printing for the bench harnesses. Every experiment
/// binary prints a paper-style table through this; `--csv`-minded users get
/// the same rows via printCsv.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace dtncache::metrics {

/// Format a double with fixed precision, trimming to a compact width.
std::string fmt(double value, int precision = 3);

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& addRow(std::vector<std::string> cells);

  void print(std::ostream& out) const;
  void printCsv(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Write labeled time series as a plot-ready CSV file (`time_days` column
/// followed by one column per series; series are resampled to a common
/// point count). The benches use this to leave plottable artifacts next
/// to their printed tables.
void writeTimeSeriesCsv(const std::string& path,
                        const std::vector<std::pair<std::string, sim::TimeSeries>>& series,
                        std::size_t points = 200);

}  // namespace dtncache::metrics
