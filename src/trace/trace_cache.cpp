#include "trace/trace_cache.hpp"

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace dtncache::trace {

namespace {

/// An estimator warmed over an entry's trace, with the inputs it was
/// warmed for.
struct Warmed {
  std::size_t nodeCount = 0;
  EstimatorConfig config;
  sim::SimTime warmup = 0.0;
  bool sparse = false;
  std::shared_ptr<const ContactRateEstimator> estimator;
};

struct Entry {
  SyntheticTraceConfig config;
  std::shared_ptr<const SyntheticTrace> trace;
  std::uint64_t lastUse = 0;
  std::vector<Warmed> warmed;
};

struct Cache {
  std::mutex mu;
  std::vector<Entry> entries;
  std::uint64_t clock = 0;
};

Cache& cache() {
  static Cache c;
  return c;
}

/// A sweep holds at most (world + warm-up) traces per live seed; eight seeds
/// of headroom covers the distance between one scheme arm's use of a seed
/// and the next arm's reuse for typical grids, while bounding memory.
constexpr std::size_t kMaxEntries = 16;

}  // namespace

std::shared_ptr<const SyntheticTrace> generateShared(const SyntheticTraceConfig& config) {
  Cache& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    for (Entry& e : c.entries) {
      if (e.config == config) {
        e.lastUse = ++c.clock;
        return e.trace;
      }
    }
  }

  // Generate outside the lock so concurrent sweep workers are not
  // serialized behind one another's generation. Two workers racing on the
  // same config may both generate; the results are identical, so the
  // duplicate insert below is harmless (the loser's copy is dropped).
  SyntheticTrace built = generate(config);
  built.stats = built.trace.stats();
  auto fresh = std::make_shared<const SyntheticTrace>(std::move(built));

  std::lock_guard<std::mutex> lock(c.mu);
  for (Entry& e : c.entries) {
    if (e.config == config) {
      e.lastUse = ++c.clock;
      return e.trace;
    }
  }
  if (c.entries.size() >= kMaxEntries) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < c.entries.size(); ++i)
      if (c.entries[i].lastUse < c.entries[victim].lastUse) victim = i;
    c.entries.erase(c.entries.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  c.entries.push_back(Entry{config, fresh, ++c.clock, {}});
  return fresh;
}

std::shared_ptr<const ContactRateEstimator> warmedEstimatorShared(
    const SyntheticTraceConfig& warmConfig, std::size_t nodeCount,
    const EstimatorConfig& estimator, sim::SimTime warmup) {
  const std::shared_ptr<const SyntheticTrace> trace = generateShared(warmConfig);
  // The layout is part of the key: the DTNCACHE_SPARSE_PAIRS override is
  // read whenever a pair structure is built.
  const bool sparse = useSparsePairs(nodeCount, estimator.backend);
  const auto matches = [&](const Warmed& w) {
    return w.nodeCount == nodeCount && w.config == estimator && w.warmup == warmup &&
           w.sparse == sparse;
  };
  // The entry holding this very trace, if it is still cached.
  const auto entryOf = [&](Cache& c) -> Entry* {
    for (Entry& e : c.entries)
      if (e.trace == trace) return &e;
    return nullptr;
  };
  Cache& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (Entry* e = entryOf(c); e != nullptr)
      for (const Warmed& w : e->warmed)
        if (matches(w)) return w.estimator;
  }

  // Replay outside the lock (racing duplicates are identical, as above).
  auto fresh = std::make_shared<ContactRateEstimator>(nodeCount, estimator, -warmup);
  for (const Contact& contact : trace->trace.contacts())
    fresh->recordContact(contact.a, contact.b, contact.start - warmup);
  std::shared_ptr<const ContactRateEstimator> result = std::move(fresh);

  std::lock_guard<std::mutex> lock(c.mu);
  Entry* e = entryOf(c);
  if (e == nullptr) return result;  // the trace was evicted meanwhile: keep nothing
  for (const Warmed& w : e->warmed)
    if (matches(w)) return w.estimator;
  e->warmed.push_back(Warmed{nodeCount, estimator, warmup, sparse, result});
  return result;
}

void clearTraceCache() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.entries.clear();
  c.clock = 0;
}

}  // namespace dtncache::trace
