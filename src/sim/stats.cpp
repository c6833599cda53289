#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dtncache::sim {

double Accumulator::stddev() const { return std::sqrt(variance()); }

std::vector<TimeSeries::Point> TimeSeries::resampled(std::size_t n) const {
  if (points_.size() <= n || n == 0) return points_;
  std::vector<Point> out;
  out.reserve(n);
  const double step = static_cast<double>(points_.size() - 1) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(std::llround(static_cast<double>(i) * step));
    out.push_back(points_[std::min(idx, points_.size() - 1)]);
  }
  return out;
}

}  // namespace dtncache::sim
