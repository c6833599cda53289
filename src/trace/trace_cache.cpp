#include "trace/trace_cache.hpp"

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace dtncache::trace {

namespace {

struct Entry {
  SyntheticTraceConfig config;
  std::shared_ptr<const SyntheticTrace> trace;
  std::uint64_t lastUse = 0;
};

/// An estimator warmed over the trace generate(`warmConfig`) makes, with
/// the other inputs it was warmed for. The trace itself is not kept.
struct Warmed {
  SyntheticTraceConfig warmConfig;
  std::size_t nodeCount = 0;
  EstimatorConfig config;
  sim::SimTime warmup = 0.0;
  bool sparse = false;
  std::shared_ptr<const ContactRateEstimator> estimator;
  std::uint64_t lastUse = 0;
};

struct Cache {
  std::mutex mu;
  std::vector<Entry> entries;
  std::vector<Warmed> warmed;
  std::uint64_t clock = 0;
};

Cache& cache() {
  static Cache c;
  return c;
}

/// A sweep holds at most one world trace and one warmed estimator per live
/// seed; eight seeds of headroom covers the distance between one scheme
/// arm's use of a seed and the next arm's reuse for typical grids, while
/// bounding memory. Both tables use the same bound.
constexpr std::size_t kMaxEntries = 16;

/// Mark the entry of `table` that `matches` as used and return it, or null.
template <typename T, typename Match>
T* touch(Cache& c, std::vector<T>& table, const Match& matches) {
  for (T& e : table) {
    if (matches(e)) {
      e.lastUse = ++c.clock;
      return &e;
    }
  }
  return nullptr;
}

/// Append `fresh` to `table`, evicting the least recently used entry first
/// when the table is full.
template <typename T>
void insertEvicting(Cache& c, std::vector<T>& table, T fresh) {
  if (table.size() >= kMaxEntries) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < table.size(); ++i)
      if (table[i].lastUse < table[victim].lastUse) victim = i;
    table.erase(table.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  fresh.lastUse = ++c.clock;
  table.push_back(std::move(fresh));
}

}  // namespace

std::shared_ptr<const SyntheticTrace> generateShared(const SyntheticTraceConfig& config) {
  Cache& c = cache();
  const auto matches = [&](const Entry& e) { return e.config == config; };
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (const Entry* e = touch(c, c.entries, matches); e != nullptr) return e->trace;
  }

  // Generate outside the lock so concurrent sweep workers are not
  // serialized behind one another's generation. Two workers racing on the
  // same config may both generate; the results are identical, so the
  // duplicate insert below is harmless (the loser's copy is dropped).
  SyntheticTrace built = generate(config);
  built.stats = built.trace.stats();
  auto fresh = std::make_shared<const SyntheticTrace>(std::move(built));

  std::lock_guard<std::mutex> lock(c.mu);
  if (const Entry* e = touch(c, c.entries, matches); e != nullptr) return e->trace;
  insertEvicting(c, c.entries, Entry{config, fresh, 0});
  return fresh;
}

std::shared_ptr<const ContactRateEstimator> warmedEstimatorShared(
    const SyntheticTraceConfig& warmConfig, std::size_t nodeCount,
    const EstimatorConfig& estimator, sim::SimTime warmup) {
  // The layout is part of the key: the DTNCACHE_SPARSE_PAIRS override is
  // read whenever a pair structure is built.
  const bool sparse = useSparsePairs(nodeCount, estimator.backend);
  const auto matches = [&](const Warmed& w) {
    return w.nodeCount == nodeCount && w.config == estimator && w.warmup == warmup &&
           w.sparse == sparse && w.warmConfig == warmConfig;
  };
  Cache& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (const Warmed* w = touch(c, c.warmed, matches); w != nullptr) return w->estimator;
  }

  // Generate and replay outside the lock (racing duplicates are identical,
  // as above). Nothing reads the warm-up trace again, so it is dropped
  // here rather than memoized.
  auto fresh = std::make_shared<ContactRateEstimator>(nodeCount, estimator, -warmup);
  {
    const SyntheticTrace trace = generate(warmConfig);
    for (const Contact& contact : trace.trace.contacts())
      fresh->recordContact(contact.a, contact.b, contact.start - warmup);
  }
  std::shared_ptr<const ContactRateEstimator> result = std::move(fresh);

  std::lock_guard<std::mutex> lock(c.mu);
  if (const Warmed* w = touch(c, c.warmed, matches); w != nullptr) return w->estimator;
  insertEvicting(c, c.warmed, Warmed{warmConfig, nodeCount, estimator, warmup, sparse, result, 0});
  return result;
}

void clearTraceCache() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.entries.clear();
  c.warmed.clear();
  c.clock = 0;
}

}  // namespace dtncache::trace
