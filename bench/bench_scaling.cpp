/// Experiment F14 (extension) — scaling with network size.
/// Sweep the node count at constant per-pair contact density and constant
/// caching-set size. Expected shape: the hierarchical scheme's freshness
/// is roughly size-invariant (its work is per caching set, not per
/// network), query validity improves slightly (more relays to route
/// through), and per-node refresh load *falls* with N (more carriers
/// share the relay duty) — the scheme scales out.
///
/// The size points are independent simulations and run on the sweep
/// engine's thread pool (`--jobs N`); the table is identical at any jobs
/// count.

#include <algorithm>
#include <iostream>
#include <iterator>

#include "bench/common.hpp"
#include "metrics/load.hpp"

using namespace dtncache;

int main(int argc, char** argv) {
  const std::size_t jobs = bench::jobsArg(argc, argv);
  bench::banner("F14", "scaling with network size (extension)");

  constexpr std::size_t kNodeCounts[] = {40, 80, 120, 200};
  std::vector<runner::ExperimentConfig> configs;
  for (const std::size_t nodes : kNodeCounts) {
    auto cfg = runner::presetConfig("infocom", nodes);
    cfg.trace.communities = std::max<std::size_t>(2, nodes / 20);
    cfg.scheme = runner::SchemeKind::kHierarchical;
    cfg.hierarchical.useOracleRates = true;
    configs.push_back(cfg);
  }
  const auto outputs = sweep::runParallel(configs, jobs);

  metrics::Table table({"nodes", "contacts", "mean_fresh", "within_tau",
                        "valid_answers", "refresh_KB_per_node"});
  for (std::size_t i = 0; i < std::size(kNodeCounts); ++i) {
    const auto& out = outputs[i];
    const auto load = metrics::loadStats(out.results.transfers.perNodeRefreshBytes());
    table.addRow({std::to_string(kNodeCounts[i]),
                  std::to_string(out.traceStats.contactCount),
                  metrics::fmt(out.results.meanFreshFraction),
                  metrics::fmt(out.results.refreshWithinPeriodRatio),
                  metrics::fmt(out.results.queries.successRatio()),
                  metrics::fmt(load.meanBytes / 1024.0, 0)});
  }
  table.print(std::cout);
  std::cout << "\nCaching-set size is fixed at 8; density is fixed per pair, so\n"
               "total contacts grow ~quadratically while per-node refresh duty "
               "stays bounded.\n";
  return 0;
}
