/// Hot-path microbenchmarks (google-benchmark): the costs that bound
/// simulation throughput and, in a deployment, per-contact CPU work on a
/// mobile device — hierarchy construction, replication planning, the
/// hypoexponential closed forms, and event-queue throughput.

#include <benchmark/benchmark.h>

#include "cache/centrality.hpp"
#include "core/freshness.hpp"
#include "core/hierarchy.hpp"
#include "core/replication.hpp"
#include "runner/presets.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "trace/generators.hpp"

using namespace dtncache;

namespace {

trace::RateMatrix randomRates(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  trace::RateMatrix m(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.7)) m.setRate(i, j, rng.uniform(1e-6, 1e-3));
  return m;
}

void BM_HypoexponentialCdf(benchmark::State& state) {
  const auto stages = static_cast<std::size_t>(state.range(0));
  std::vector<double> rates;
  sim::Rng rng(1);
  for (std::size_t i = 0; i < stages; ++i) rates.push_back(rng.uniform(0.1, 2.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hypoexponentialCdf(rates, 1.5));
  }
}
BENCHMARK(BM_HypoexponentialCdf)->Arg(2)->Arg(4)->Arg(8);

void BM_HierarchyBuild(benchmark::State& state) {
  const auto members = static_cast<std::size_t>(state.range(0));
  const auto m = randomRates(members + 1, 7);
  std::vector<NodeId> ms;
  for (NodeId i = 1; i <= members; ++i) ms.push_back(i);
  const core::RateFn rate = [&m](NodeId a, NodeId b) { return m.rate(a, b); };
  core::HierarchyConfig cfg;
  cfg.fanoutBound = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::RefreshHierarchy::build(0, ms, rate, sim::hours(6), cfg));
  }
}
BENCHMARK(BM_HierarchyBuild)->Arg(8)->Arg(16)->Arg(32);

void BM_ReplicationPlan(benchmark::State& state) {
  const auto members = static_cast<std::size_t>(state.range(0));
  const auto m = randomRates(members + 1, 11);
  std::vector<NodeId> ms;
  for (NodeId i = 1; i <= members; ++i) ms.push_back(i);
  const core::RateFn rate = [&m](NodeId a, NodeId b) { return m.rate(a, b); };
  core::HierarchyConfig hcfg;
  hcfg.fanoutBound = 3;
  const auto h = core::RefreshHierarchy::build(0, ms, rate, sim::hours(6), hcfg);
  core::ReplicationConfig rcfg;
  rcfg.theta = 0.95;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::planReplication(h, rate, sim::hours(6), rcfg));
  }
}
BENCHMARK(BM_ReplicationPlan)->Arg(8)->Arg(16)->Arg(32);

void BM_NclSelection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = randomRates(n, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::selectNcls(m, sim::hours(24), 8));
  }
}
BENCHMARK(BM_NclSelection)->Arg(50)->Arg(100);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i)
      q.schedule(static_cast<double>((i * 7919) % 1000), [](sim::SimTime) {});
    while (!q.empty()) q.runNext();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_TraceGeneration(benchmark::State& state) {
  auto cfg = runner::presetConfig("infocom").trace;
  for (auto _ : state) {
    cfg.seed++;
    benchmark::DoNotOptimize(trace::generate(cfg));
  }
}
BENCHMARK(BM_TraceGeneration);

}  // namespace

BENCHMARK_MAIN();
