/// Experiment F5, helper-ranking section — the one F5 arm without a config
/// key (`replication.order`), so it stays C++; scripts/figures.py renders
/// the θ grids (predicted vs achieved P(refresh ≤ τ)) and runs this binary
/// after them.
///
/// At θ = 0.9 without relays, compare ranking helpers by their contribution
/// to the refresh probability against ranking them by raw contact rate.
/// Both cells run on the sweep engine's thread pool (`--jobs N`); the table
/// is identical at any jobs count.

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

int main(int argc, char** argv) {
  const std::size_t jobs = bench::jobsArg(argc, argv);
  std::cout << "\n--- infocom-like: helper ranking (contribution-first vs raw-rate-first) ---\n";
  const std::vector<std::pair<core::HelperOrder, const char*>> orders = {
      {core::HelperOrder::kBestContribution, "contribution"},
      {core::HelperOrder::kHighestRate, "raw-rate"}};
  std::vector<runner::ExperimentConfig> configs;
  for (const auto& [order, label] : orders) {
    auto cfg = runner::presetConfig("infocom");
    cfg.scheme = runner::SchemeKind::kHierarchical;
    cfg.hierarchical.replication.enabled = true;
    cfg.hierarchical.replication.theta = 0.9;
    cfg.hierarchical.replication.order = order;
    cfg.hierarchical.relayAssisted = false;
    cfg.hierarchical.maintenance = core::MaintenanceMode::kStatic;
    cfg.hierarchical.useOracleRates = true;
    cfg.workload.queriesPerNodePerDay = 0.0;
    configs.push_back(cfg);
  }
  const auto outputs = sweep::runParallel(configs, jobs);

  metrics::Table table({"order", "predicted", "achieved", "helpers"});
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const auto& out = outputs[i];
    table.addRow({orders[i].second, metrics::fmt(out.meanPredictedProbability),
                  metrics::fmt(out.results.refreshWithinPeriodRatio),
                  std::to_string(out.replicationAssignments)});
  }
  table.print(std::cout);
  return 0;
}
