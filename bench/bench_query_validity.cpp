/// Experiment F7 — data-access validity vs query load.
/// Paper analogue: "ensures the validity of data access provided to mobile
/// users." Sweeps the per-node query rate and reports the valid-answer
/// ratio, the fraction of answers that were fresh, and the mean access
/// delay. Expected shape: validity is roughly load-independent (caches,
/// not queues, dominate) and ordered by each scheme's freshness.

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

void runScenario(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << " ---\n";
  metrics::Table table({"queries_per_node_day", "scheme", "answered", "valid",
                        "fresh_answers", "mean_delay_h", "max_delay_h"});
  for (double rate : {0.5, 2.0, 8.0}) {
    for (const auto kind :
         {runner::SchemeKind::kHierarchical, runner::SchemeKind::kNoRefresh,
          runner::SchemeKind::kSourceDirect, runner::SchemeKind::kEpidemic}) {
      auto cfg = base;
      cfg.scheme = kind;
      cfg.workload.queriesPerNodePerDay = rate;
      const auto out = runner::runExperiment(cfg);
      const auto& q = out.results.queries;
      table.addRow({metrics::fmt(rate, 1), out.scheme, metrics::fmt(q.answeredRatio()),
                    metrics::fmt(q.successRatio()), metrics::fmt(q.freshAnswerRatio()),
                    metrics::fmt(sim::toHours(q.delay.mean()), 2),
                    metrics::fmt(sim::toHours(q.delay.max()), 2)});
    }
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("F7", "query validity and access delay vs load");
  runScenario("infocom-like", runner::presetConfig("infocom"));
  runScenario("reality-like", runner::presetConfig("reality"));
  return 0;
}
