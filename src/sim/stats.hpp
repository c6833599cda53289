#pragma once

/// \file stats.hpp
/// Statistics accumulators used throughout metrics collection and benches.
///
/// - Accumulator: streaming count/mean/variance/min/max (Welford).
/// - TimeWeightedMean: average of a piecewise-constant signal over sim time
///   (the right notion for "fraction of fresh copies").
/// - TimeSeries: (t, value) samples for time plots.

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace dtncache::sim {

/// The repo-wide empty-denominator convention: a ratio over zero events is
/// 0, not NaN. Every "x per y" metric (query success ratios, per-node
/// loads, CSV/JSONL sink cells) funnels through here so that sweep output
/// never contains `nan` cells and all callers agree on the convention.
inline double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

inline double ratio(std::size_t numerator, std::size_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) / static_cast<double>(denominator);
}

/// Streaming moments over a sequence of samples.
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  std::size_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const { return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1); }
  double stddev() const;
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }

  void reset() { *this = Accumulator{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted mean of a piecewise-constant signal. Call update(t, v)
/// whenever the signal changes; the value v holds from t until the next
/// update. mean(tEnd) integrates up to tEnd.
class TimeWeightedMean {
 public:
  explicit TimeWeightedMean(SimTime start = 0.0)
      : startTime_(start), lastTime_(start) {}

  void update(SimTime t, double value) {
    DTNCACHE_CHECK_MSG(t >= lastTime_, "time went backwards: " << t << " < " << lastTime_);
    integral_ += current_ * (t - lastTime_);
    lastTime_ = t;
    current_ = value;
  }

  double currentValue() const { return current_; }

  /// Mean over [start, tEnd]. tEnd must be >= the last update time.
  double mean(SimTime tEnd) const {
    DTNCACHE_CHECK(tEnd >= lastTime_);
    const double span = tEnd - start();
    if (span <= 0.0) return current_;
    return (integral_ + current_ * (tEnd - lastTime_)) / span;
  }

 private:
  double start() const { return startTime_; }

  SimTime startTime_;
  SimTime lastTime_;
  double current_ = 0.0;
  double integral_ = 0.0;
};

/// Sequence of (time, value) samples for plotting a signal over time.
class TimeSeries {
 public:
  void record(SimTime t, double v) { points_.push_back({t, v}); }

  struct Point {
    SimTime time;
    double value;
  };
  const std::vector<Point>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Downsample to at most `n` evenly spaced points (for compact printing).
  std::vector<Point> resampled(std::size_t n) const;

 private:
  std::vector<Point> points_;
};

}  // namespace dtncache::sim
