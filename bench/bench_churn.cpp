/// Experiment F11 — freshness maintenance under node churn.
/// The "distributed maintenance" claim: the refresh structure survives
/// members powering off and returning, repaired locally (leave: children
/// adopted by the grandparent; join: re-attach under the best live
/// parent). Sweep churn intensity and compare the repairing scheme against
/// a frozen hierarchy and against the structure-free epidemic baseline.
/// Expected shape: repair holds most of the churn-free freshness; the
/// frozen hierarchy decays with churn (dead interior nodes orphan
/// subtrees); epidemic is insensitive but starts lower.

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

void runScenario(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << " ---\n";
  metrics::Table table({"mean_downtime_h", "arm", "mean_fresh", "within_tau",
                        "churn_repairs", "suppressed_contacts"});
  for (double downH : {0.0, 6.0, 24.0, 72.0}) {
    struct Arm {
      const char* label;
      runner::SchemeKind kind;
      bool repair;
    };
    for (const Arm& arm : {Arm{"hierarchical+repair", runner::SchemeKind::kHierarchical, true},
                           Arm{"hierarchical-frozen", runner::SchemeKind::kHierarchical, false},
                           Arm{"epidemic", runner::SchemeKind::kEpidemic, false}}) {
      auto cfg = base;
      cfg.scheme = arm.kind;
      cfg.workload.queriesPerNodePerDay = 0.0;
      cfg.hierarchical.useOracleRates = true;
      // Structure-only delivery: relays would route around dead interior
      // nodes and mask exactly the damage the repair exists to fix. Deep
      // trees (fanout 2, 12 members) maximize interior-death exposure, and
      // periodic maintenance is off so the only adaptation is churn repair.
      cfg.hierarchical.relayAssisted = false;
      cfg.hierarchical.hierarchy.fanoutBound = 2;
      cfg.hierarchical.maintenance = core::MaintenanceMode::kStatic;
      cfg.cache.cachingNodesPerItem = 12;
      if (downH > 0.0) {
        cfg.churnEnabled = true;
        cfg.churnRepairEnabled = arm.repair;
        cfg.churn.meanUptime = sim::days(2);
        cfg.churn.meanDowntime = sim::hours(downH);
      }
      const auto out = runner::runExperiment(cfg);
      table.addRow({metrics::fmt(downH, 0), arm.label,
                    metrics::fmt(out.results.meanFreshFraction),
                    metrics::fmt(out.results.refreshWithinPeriodRatio),
                    std::to_string(out.churnRepairs),
                    std::to_string(out.contactsSuppressed)});
    }
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("F11", "freshness under node churn (distributed repair)");
  runScenario("infocom-like", runner::presetConfig("infocom"));
  runScenario("reality-like", runner::presetConfig("reality"));
  return 0;
}
