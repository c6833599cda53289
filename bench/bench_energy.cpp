/// Experiment F12 (extension) — energy cost and network lifetime.
/// Mobile devices pay for freshness in battery. With a fixed per-device
/// energy budget, aggressive dissemination kills nodes: this bench sweeps
/// the budget and reports dead nodes, time of first death, residual
/// battery, and the freshness/validity actually delivered. It also runs
/// the battery-aware planning arm (helper selection weighted by remaining
/// charge), which shifts refresh duty off drained nodes.
/// Expected shape: flooding buys its freshness ceiling with the most
/// deaths under tight budgets; the hierarchical scheme delivers most of
/// the freshness at materially higher residual battery; battery-aware
/// planning postpones the first death.

#include <cmath>
#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

std::string deathDay(sim::SimTime t) {
  return std::isinf(t) ? "-" : metrics::fmt(sim::toDays(t), 2);
}

void budgetSweep(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << ": battery budget sweep ---\n";
  metrics::Table table({"battery_J", "scheme", "mean_fresh", "valid_answers",
                        "dead_nodes", "first_death_day", "mean_residual"});
  for (double battery : {100.0, 150.0, 250.0}) {
    for (const auto kind :
         {runner::SchemeKind::kHierarchical, runner::SchemeKind::kSourceDirect,
          runner::SchemeKind::kEpidemic, runner::SchemeKind::kFlooding}) {
      auto cfg = base;
      cfg.scheme = kind;
      cfg.energyEnabled = true;
      cfg.energy.batteryJoules = battery;
      cfg.energy.idleJoulesPerHour = 0.5;
      cfg.hierarchical.useOracleRates = true;
      const auto out = runner::runExperiment(cfg);
      table.addRow({metrics::fmt(battery, 0), out.scheme,
                    metrics::fmt(out.results.meanFreshFraction),
                    metrics::fmt(out.results.queries.successRatio()),
                    std::to_string(out.depletedNodes), deathDay(out.firstDepletionTime),
                    metrics::fmt(out.meanRemainingBattery, 2)});
    }
  }
  table.print(std::cout);
}

void batteryAwarePlanning(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << ": battery-aware helper selection ---\n";
  metrics::Table table({"planning", "mean_fresh", "dead_nodes", "first_death_day",
                        "min_residual", "helpers"});
  // Maintenance traffic isolated (no queries); aggressive relay gating and
  // frequent re-planning give the battery weight its best shot. The effect
  // is honest but small: most drain is receive-side and control cost the
  // sender-side policy cannot avoid (see EXPERIMENTS.md, F12).
  for (const bool aware : {false, true}) {
    auto cfg = base;
    cfg.scheme = runner::SchemeKind::kHierarchical;
    cfg.workload.queriesPerNodePerDay = 0.0;
    cfg.energyEnabled = true;
    cfg.energyAwarePlanning = aware;
    cfg.energy.batteryJoules = 100.0;
    cfg.energy.idleJoulesPerHour = 0.2;
    cfg.hierarchical.useOracleRates = true;
    cfg.hierarchical.minRelayCarrierBattery = 0.4;
    cfg.hierarchical.maintenance = core::MaintenanceMode::kRebuild;
    cfg.hierarchical.maintenancePeriod = sim::hours(6);
    const auto out = runner::runExperiment(cfg);
    table.addRow({aware ? "battery-aware" : "battery-blind",
                  metrics::fmt(out.results.meanFreshFraction),
                  std::to_string(out.depletedNodes), deathDay(out.firstDepletionTime),
                  metrics::fmt(out.minRemainingBattery, 2),
                  std::to_string(out.replicationAssignments)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("F12", "energy cost and network lifetime (extension)");
  budgetSweep("infocom-like", runner::presetConfig("infocom"));
  batteryAwarePlanning("infocom-like", runner::presetConfig("infocom"));
  return 0;
}
