/// Asserts the zero-allocation steady-state contract of the contact data
/// path. This test binary replaces global new/delete with versions that
/// count every allocation on the calling thread. After a warm-up phase
/// (scratch buffers grown, pools sized, estimator populated), the windows
/// between two sampling ticks replay contacts only, and they must not
/// allocate at all. The counting operators live here, not in the library:
/// no program build pays for them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>

#include "core/hierarchical_scheme.hpp"
#include "data/source.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace {

// Scalar thread_local: constant-initialized, so counting is safe even for
// allocations made before main().
thread_local std::uint64_t g_threadAllocs = 0;

void* countedAlloc(std::size_t n) {
  ++g_threadAllocs;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* countedAlignedAlloc(std::size_t n, std::size_t align) {
  ++g_threadAllocs;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n != 0 ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_threadAllocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_threadAllocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dtncache::cache {
namespace {

/// Full stack over a homogeneous trace, configured so steady state is
/// genuinely quiescent: no queries, no version bumps inside the horizon,
/// and no relay injection (relay budget keys grow with each new version by
/// design, which is amortized growth, not steady state).
struct Rig {
  Rig()
      : world(trace::generate(trace::homogeneousConfig(12, 6.0, sim::days(5), 7))),
        catalog(makeCatalog()),
        estimator(12, trace::EstimatorConfig{}, 0.0),
        network(simulator, world.trace),
        collector(catalog, 0.0),
        coop(simulator, network, catalog, estimator, collector, world.rates,
             cacheConfig()),
        scheme(schemeConfig(), &world.rates) {
    coop.setObservability(nullptr, &registry);
    sources = std::make_unique<data::SourceProcess>(simulator, catalog, sim::days(5));
    coop.setScheme(&scheme);
    coop.start(*sources, nullptr, sim::days(5));
  }

  static data::Catalog makeCatalog() {
    data::CatalogConfig cfg;
    cfg.itemCount = 3;
    cfg.nodeCount = 12;
    cfg.refreshPeriod = sim::days(30);  // no bumps within the horizon
    return data::makeUniformCatalog(cfg);
  }
  static CoopCacheConfig cacheConfig() {
    CoopCacheConfig c;
    c.cachingNodesPerItem = 5;
    return c;
  }
  static core::HierarchicalConfig schemeConfig() {
    core::HierarchicalConfig c;
    c.useOracleRates = true;
    c.relayAssisted = false;
    c.maintenance = core::MaintenanceMode::kStatic;
    return c;
  }

  trace::SyntheticTrace world;
  sim::Simulator simulator;
  data::Catalog catalog;
  trace::ContactRateEstimator estimator;
  net::Network network;
  metrics::MetricsCollector collector;
  obs::Registry registry;
  CooperativeCache coop;
  core::HierarchicalRefreshScheme scheme;
  std::unique_ptr<data::SourceProcess> sources;
};

TEST(AllocHook, SteadyStateContactsDoNotAllocate) {
  Rig rig;
  // Warm-up: scratch buffers, buffer slots, and estimator state all reach
  // their steady footprint within the first day of contacts.
  rig.simulator.runUntil(sim::days(1));

  // Each counted window runs what lies strictly between two sampling
  // ticks. The ticks themselves append to the collector's time series,
  // which is amortized growth outside the contact path.
  const sim::SimTime tick = rig.coop.config().sampleInterval;
  std::uint64_t allocs = 0;
  std::size_t contacts = 0;
  for (sim::SimTime from = sim::days(1); from + tick <= sim::days(5); from += tick) {
    rig.simulator.runUntil(from);
    const sim::SimTime until = std::nextafter(from + tick, 0.0);
    const std::uint64_t before = g_threadAllocs;
    rig.simulator.runUntil(until);
    allocs += g_threadAllocs - before;
    for (const trace::Contact& c : rig.world.trace.contacts())
      if (c.start > from && c.start <= until) ++contacts;
  }
  EXPECT_EQ(allocs, 0u) << "steady-state contacts allocated " << allocs << " times";
  // Sanity: the counted windows actually replayed contacts.
  EXPECT_GT(contacts, 100u);
}

}  // namespace
}  // namespace dtncache::cache
