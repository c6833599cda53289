/// Experiment F12 (extension), battery-aware planning section — its arm
/// sets `minRelayCarrierBattery`, which has no config key, so it stays C++;
/// scripts/figures.py renders the battery-budget grid and runs this binary
/// after it.
///
/// Helper selection weighted by remaining charge shifts refresh duty off
/// drained nodes. Expected shape: battery-aware planning postpones the
/// first death.

#include <cmath>
#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

int main() {
  std::cout << "\n--- infocom-like: battery-aware helper selection ---\n";
  metrics::Table table({"planning", "mean_fresh", "dead_nodes", "first_death_day",
                        "min_residual", "helpers"});
  // Maintenance traffic isolated (no queries); aggressive relay gating and
  // frequent re-planning give the battery weight its best shot. The effect
  // is honest but small: most drain is receive-side and control cost the
  // sender-side policy cannot avoid (see EXPERIMENTS.md, F12).
  for (const bool aware : {false, true}) {
    auto cfg = runner::presetConfig("infocom");
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
                  std::to_string(out.depletedNodes),
                  std::isinf(out.firstDepletionTime)
                      ? "-"
                      : metrics::fmt(sim::toDays(out.firstDepletionTime), 2),
                  metrics::fmt(out.minRemainingBattery, 2),
                  std::to_string(out.replicationAssignments)});
  }
  table.print(std::cout);
  return 0;
}
