#include "trace/trace_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
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
  std::size_t hits = 0;
  std::size_t misses = 0;
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
        ++c.hits;
        return e.trace;
      }
    }
    ++c.misses;
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

namespace {

/// Identity + content fingerprint of an external trace. The address alone
/// is unsafe (a reloaded trace can land on a recycled allocation), so mix
/// in the cheap invariants and a strided FNV-1a sample of the contact
/// records; any in-place edit of a sampled record, the size, or the
/// duration changes the key.
struct ExternalKey {
  const ContactTrace* ptr = nullptr;
  std::size_t nodeCount = 0;
  std::size_t contactCount = 0;
  std::uint64_t durationBits = 0;
  std::uint64_t digest = 0;

  bool operator==(const ExternalKey& o) const {
    return ptr == o.ptr && nodeCount == o.nodeCount && contactCount == o.contactCount &&
           durationBits == o.durationBits && digest == o.digest;
  }
};

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

ExternalKey externalKeyOf(const ContactTrace& trace) {
  ExternalKey key;
  key.ptr = &trace;
  key.nodeCount = trace.nodeCount();
  key.contactCount = trace.contacts().size();
  key.durationBits = bitsOf(trace.duration());
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over sampled contacts
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  const auto& contacts = trace.contacts();
  const std::size_t samples = std::min<std::size_t>(contacts.size(), 64);
  const std::size_t stride = samples > 0 ? std::max<std::size_t>(contacts.size() / samples, 1) : 1;
  for (std::size_t i = 0; i < contacts.size(); i += stride) {
    const Contact& c = contacts[i];
    mix((static_cast<std::uint64_t>(c.a) << 32) | c.b);
    mix(bitsOf(c.start));
    mix(bitsOf(c.duration));
  }
  key.digest = h;
  return key;
}

struct ExternalEntry {
  ExternalKey key;
  std::shared_ptr<const SyntheticTrace> trace;
  std::uint64_t lastUse = 0;
};

struct ExternalCache {
  std::mutex mu;
  std::vector<ExternalEntry> entries;
  std::uint64_t clock = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

ExternalCache& externalCache() {
  static ExternalCache c;
  return c;
}

/// A process rarely juggles more than a couple of loaded traces at once.
constexpr std::size_t kMaxExternalEntries = 4;

}  // namespace

std::shared_ptr<const SyntheticTrace> externalShared(const ContactTrace& trace) {
  const ExternalKey key = externalKeyOf(trace);
  ExternalCache& c = externalCache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    for (ExternalEntry& e : c.entries) {
      if (e.key == key) {
        e.lastUse = ++c.clock;
        ++c.hits;
        return e.trace;
      }
    }
    ++c.misses;
  }

  // Copy + fit outside the lock (same racing-duplicates tolerance as
  // generateShared: both losers produce identical objects).
  auto fresh = std::make_shared<SyntheticTrace>();
  fresh->trace = trace;
  fresh->rates = RateMatrix::fitFromTrace(fresh->trace);
  fresh->stats = fresh->trace.stats();
  std::shared_ptr<const SyntheticTrace> result = std::move(fresh);

  std::lock_guard<std::mutex> lock(c.mu);
  for (ExternalEntry& e : c.entries) {
    if (e.key == key) {
      e.lastUse = ++c.clock;
      return e.trace;
    }
  }
  if (c.entries.size() >= kMaxExternalEntries) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < c.entries.size(); ++i)
      if (c.entries[i].lastUse < c.entries[victim].lastUse) victim = i;
    c.entries.erase(c.entries.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  c.entries.push_back(ExternalEntry{key, result, ++c.clock});
  return result;
}

TraceCacheStats externalTraceCacheStats() {
  ExternalCache& c = externalCache();
  std::lock_guard<std::mutex> lock(c.mu);
  return TraceCacheStats{c.hits, c.misses, c.entries.size()};
}

void clearExternalTraceCache() {
  ExternalCache& c = externalCache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.entries.clear();
  c.clock = 0;
  c.hits = 0;
  c.misses = 0;
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

TraceCacheStats traceCacheStats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  return TraceCacheStats{c.hits, c.misses, c.entries.size()};
}

void clearTraceCache() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.entries.clear();
  c.clock = 0;
  c.hits = 0;
  c.misses = 0;
}

}  // namespace dtncache::trace
