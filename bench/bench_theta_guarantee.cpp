/// Experiment F5 — the probabilistic-replication freshness guarantee.
/// Paper analogue: "probabilistic replication methods analytically ensure
/// that the freshness requirements of cached data are satisfied."
///
/// Sweep the requirement θ and report, per arm:
///   - predicted  P(refresh ≤ τ) from the hypoexponential chain+helper model
///   - achieved   P(refresh ≤ τ) measured in simulation
///   - helpers    total replication assignments the planner made
/// Expected shape: with replication ON the achieved probability tracks (or
/// exceeds) θ until the network's physical ceiling; with replication OFF it
/// plateaus at the bare-chain level regardless of θ. The no-relay arm
/// isolates model accuracy: predicted ≈ achieved.
///
/// Every (θ, arm) cell is an independent simulation; the whole grid runs
/// on the sweep engine's thread pool (`--jobs N`) and is formatted in grid
/// order, so the tables are identical at any jobs count.

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

constexpr double kThetas[] = {0.5, 0.7, 0.8, 0.9, 0.95, 0.99};

runner::ExperimentConfig cell(const runner::ExperimentConfig& base, double theta,
                              bool replication, bool relays) {
  auto cfg = base;
  cfg.scheme = runner::SchemeKind::kHierarchical;
  cfg.hierarchical.replication.enabled = replication;
  cfg.hierarchical.replication.theta = theta;
  cfg.hierarchical.relayAssisted = relays;
  if (!relays) cfg.hierarchical.maintenance = core::MaintenanceMode::kStatic;
  cfg.hierarchical.useOracleRates = true;
  cfg.workload.queriesPerNodePerDay = 0.0;
  return cfg;
}

void addRow(metrics::Table& table, double theta, bool replication, bool relays,
            const runner::ExperimentOutput& out) {
  table.addRow({metrics::fmt(theta, 2), replication ? "on" : "off",
                relays ? "on" : "off", metrics::fmt(out.meanPredictedProbability),
                metrics::fmt(out.results.refreshWithinPeriodRatio),
                std::to_string(out.replicationAssignments),
                std::to_string(out.unmetNodes),
                bench::mb(out.results.transfers.of(net::Traffic::kRefresh).bytes)});
}

void runScenario(const char* name, const runner::ExperimentConfig& base,
                 std::size_t jobs) {
  std::cout << "\n--- " << name << " ---\n";
  // Grid: θ × {replication on, off} without relays, plus one relay-assisted
  // row at θ = 0.9 showing the deployed system exceeds the conservative
  // analytical bound.
  std::vector<runner::ExperimentConfig> configs;
  for (const double theta : kThetas)
    for (const bool replication : {true, false})
      configs.push_back(cell(base, theta, replication, /*relays=*/false));
  configs.push_back(cell(base, 0.9, /*replication=*/true, /*relays=*/true));

  const auto outputs = sweep::runParallel(configs, jobs);

  metrics::Table table({"theta", "replication", "relays", "predicted", "achieved",
                        "helpers", "unmet_nodes", "refresh_MB"});
  std::size_t next = 0;
  for (const double theta : kThetas)
    for (const bool replication : {true, false})
      addRow(table, theta, replication, false, outputs[next++]);
  addRow(table, 0.9, true, true, outputs[next++]);
  table.print(std::cout);
}

void helperOrderAblation(const char* name, const runner::ExperimentConfig& base,
                         std::size_t jobs) {
  std::cout << "\n--- " << name
            << ": helper ranking (contribution-first vs raw-rate-first) ---\n";
  const std::vector<std::pair<core::HelperOrder, const char*>> orders = {
      {core::HelperOrder::kBestContribution, "contribution"},
      {core::HelperOrder::kHighestRate, "raw-rate"}};
  std::vector<runner::ExperimentConfig> configs;
  for (const auto& [order, label] : orders) {
    auto cfg = cell(base, 0.9, /*replication=*/true, /*relays=*/false);
    cfg.hierarchical.replication.order = order;
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
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench::jobsArg(argc, argv);
  bench::banner("F5", "freshness requirement theta: predicted vs achieved");
  runScenario("infocom-like", runner::presetConfig("infocom"), jobs);
  runScenario("reality-like", runner::presetConfig("reality"), jobs);
  helperOrderAblation("infocom-like", runner::presetConfig("infocom"), jobs);
  return 0;
}
