/// Experiment F10 — per-node refresh load distribution.
/// The "each caching node is only responsible for refreshing a specific
/// set of caching nodes" design bounds each node's duty; epidemic and
/// flooding push the work onto whoever is most mobile. Expected shape:
/// hierarchical shows the lowest peak-to-mean and Gini among schemes that
/// actually refresh; flooding concentrates traffic on hub nodes.

#include <iostream>

#include "bench/common.hpp"
#include "metrics/load.hpp"

using namespace dtncache;

namespace {

void runScenario(const char* name, runner::ExperimentConfig base) {
  std::cout << "\n--- " << name << " ---\n";
  metrics::Table table({"scheme", "mean_fresh", "refresh_KB_per_node_mean", "peak_to_mean",
                        "gini", "top10_share"});
  base.workload.queriesPerNodePerDay = 0.0;  // isolate maintenance traffic
  for (const auto kind : runner::allSchemes()) {
    if (kind == runner::SchemeKind::kNoRefresh) continue;  // nothing to measure
    base.scheme = kind;
    const auto out = runner::runExperiment(base);
    const auto stats = metrics::loadStats(out.results.transfers.perNodeRefreshBytes());
    table.addRow({out.scheme, metrics::fmt(out.results.meanFreshFraction),
                  metrics::fmt(stats.meanBytes / 1024.0, 1),
                  metrics::fmt(stats.peakToMean, 1), metrics::fmt(stats.gini, 2),
                  metrics::fmt(stats.top10Share, 2)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("F10", "per-node refresh load distribution");
  runScenario("infocom-like", runner::presetConfig("infocom"));
  runScenario("reality-like", runner::presetConfig("reality"));
  std::cout << "\npeak_to_mean 1.0 = perfectly even duty; gini 0 = even, 1 = "
               "one node does everything.\n";
  return 0;
}
