/// Experiment F13 (extension) — popularity-aware cache allocation.
/// The slot budget (items × R copies) is divided by the workload's Zipf
/// weights: uniform, proportional, or square-root. Expected shape: under
/// skewed demand, √-allocation answers more queries validly than uniform
/// (hot items get more replicas → shorter access paths) without
/// proportional's tail-starvation; under flat demand the policies
/// converge. Freshness per copy is roughly allocation-independent (the
/// refresh hierarchy scales with each item's set).

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

void runScenario(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << " ---\n";
  metrics::Table table({"zipf_exp", "allocation", "valid_answers", "answered",
                        "hot_item_delay_h", "mean_fresh"});
  for (double zipf : {0.2, 1.0, 1.6}) {
    for (const auto policy :
         {cache::AllocationPolicy::kUniform, cache::AllocationPolicy::kSqrt,
          cache::AllocationPolicy::kProportional}) {
      auto cfg = base;
      cfg.scheme = runner::SchemeKind::kHierarchical;
      cfg.workload.zipfExponent = zipf;
      cfg.workload.queriesPerNodePerDay = 4.0;
      cfg.allocation = policy;
      cfg.hierarchical.useOracleRates = true;
      const auto out = runner::runExperiment(cfg);
      table.addRow({metrics::fmt(zipf, 1), cache::allocationName(policy),
                    metrics::fmt(out.results.queries.successRatio()),
                    metrics::fmt(out.results.queries.answeredRatio()),
                    metrics::fmt(sim::toHours(out.results.queries.delay.mean()), 2),
                    metrics::fmt(out.results.meanFreshFraction)});
    }
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("F13", "popularity-aware cache allocation (extension)");
  runScenario("reality-like", runner::presetConfig("reality"));
  runScenario("infocom-like", runner::presetConfig("infocom"));
  return 0;
}
