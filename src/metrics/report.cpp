#include "metrics/report.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace dtncache::metrics {

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  DTNCACHE_CHECK(!headers_.empty());
}

Table& Table::addRow(std::vector<std::string> cells) {
  DTNCACHE_CHECK_MSG(cells.size() == headers_.size(),
                     "row has " << cells.size() << " cells, table has "
                                << headers_.size() << " columns");
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  auto printRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << "  " << std::left << std::setw(static_cast<int>(width[c])) << row[c];
    }
    out << '\n';
  };
  printRow(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    rule += "  " + std::string(width[c], '-');
  out << rule << '\n';
  for (const auto& row : rows_) printRow(row);
}

void writeTimeSeriesCsv(const std::string& path,
                        const std::vector<std::pair<std::string, sim::TimeSeries>>& series,
                        std::size_t points) {
  DTNCACHE_CHECK(!series.empty());
  std::ofstream out(path);
  DTNCACHE_CHECK_MSG(out.good(), "cannot write " << path);

  std::vector<std::vector<sim::TimeSeries::Point>> sampled;
  sampled.reserve(series.size());
  for (const auto& [name, s] : series) sampled.push_back(s.resampled(points));

  out << "time_days";
  for (const auto& [name, s] : series) out << ',' << name;
  out << '\n';
  const std::size_t rows = sampled.front().size();
  for (std::size_t r = 0; r < rows; ++r) {
    out << sim::toDays(sampled.front()[r].time);
    for (const auto& col : sampled)
      out << ',' << (r < col.size() ? col[r].value : 0.0);
    out << '\n';
  }
}

}  // namespace dtncache::metrics
