#include "sim/rng.hpp"

#include <algorithm>
#include <cmath>

namespace dtncache::sim {

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  DTNCACHE_CHECK(n > 0);
  DTNCACHE_CHECK(exponent >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving the tail short
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::probability(std::size_t k) const {
  DTNCACHE_CHECK(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace dtncache::sim
