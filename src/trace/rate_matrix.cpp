#include "trace/rate_matrix.hpp"

namespace dtncache::trace {

RateMatrix RateMatrix::fitFromTrace(const ContactTrace& trace, PairBackend backend) {
  RateMatrix m(trace.nodeCount(), backend);
  const sim::SimTime d = trace.duration();
  if (d <= 0.0) return m;
  // Accumulate counts in one pass, then normalize. Per-pair counts are
  // order-free, so both layouts produce identical values.
  for (const auto& c : trace.contacts()) m.at(c.a, c.b) += 1.0;
  for (auto& r : m.values_) r /= d;
  return m;
}

}  // namespace dtncache::trace
