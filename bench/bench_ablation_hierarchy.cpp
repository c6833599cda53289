/// Experiment F8 — ablations of the hierarchy design choices.
///  (a) fanout bound F: small F bounds per-node responsibility but deepens
///      the tree (late versions at the leaves); large F approaches a flat
///      star where the source does all the work.
///  (b) depth-aware vs naive attachment.
///  (c) maintenance mode: rebuild / local-repair / static, under estimated
///      (non-oracle) rates where repair actually matters.
///  (d) relay-assisted delivery on/off.

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

runner::ExperimentOutput run(runner::ExperimentConfig cfg) {
  cfg.scheme = runner::SchemeKind::kHierarchical;
  return runner::runExperiment(cfg);
}

void fanoutSweep(const char* name, const runner::ExperimentConfig& base, bool relays) {
  std::cout << "\n--- " << name << ": fanout bound F (relays " << (relays ? "on" : "off")
            << ") ---\n";
  metrics::Table table({"fanout", "mean_fresh", "within_tau", "tree_depth", "refresh_MB"});
  for (std::size_t f : {1u, 2u, 3u, 5u, 8u}) {
    auto cfg = base;
    cfg.hierarchical.hierarchy.fanoutBound = f;
    cfg.hierarchical.useOracleRates = true;
    cfg.hierarchical.relayAssisted = relays;
    const auto out = run(cfg);
    table.addRow({std::to_string(f), metrics::fmt(out.results.meanFreshFraction),
                  metrics::fmt(out.results.refreshWithinPeriodRatio),
                  std::to_string(out.maxHierarchyDepth),
                  bench::mb(out.results.transfers.of(net::Traffic::kRefresh).bytes)});
  }
  table.print(std::cout);
}

void attachmentModel(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << ": depth-aware vs naive attachment ---\n";
  metrics::Table table({"attachment", "mean_fresh", "within_tau", "tree_depth"});
  for (const bool aware : {true, false}) {
    auto cfg = base;
    cfg.hierarchical.hierarchy.depthAware = aware;
    cfg.hierarchical.useOracleRates = true;
    cfg.hierarchical.relayAssisted = false;  // expose the raw tree quality
    const auto out = run(cfg);
    table.addRow({aware ? "depth-aware" : "naive",
                  metrics::fmt(out.results.meanFreshFraction),
                  metrics::fmt(out.results.refreshWithinPeriodRatio),
                  std::to_string(out.maxHierarchyDepth)});
  }
  table.print(std::cout);
}

void maintenanceModes(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << ": maintenance under estimated rates ---\n";
  metrics::Table table({"maintenance", "mean_fresh", "within_tau", "reparents"});
  for (const auto& [mode, label] :
       {std::pair{core::MaintenanceMode::kRebuild, "rebuild"},
        std::pair{core::MaintenanceMode::kLocalRepair, "local-repair"},
        std::pair{core::MaintenanceMode::kStatic, "static"}}) {
    auto cfg = base;
    cfg.hierarchical.maintenance = mode;
    cfg.hierarchical.useOracleRates = false;  // estimator-driven: repair matters
    const auto out = run(cfg);
    table.addRow({label, metrics::fmt(out.results.meanFreshFraction),
                  metrics::fmt(out.results.refreshWithinPeriodRatio),
                  std::to_string(out.reparentCount)});
  }
  table.print(std::cout);
}

void contactLoss(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << ": robustness to contact loss ---\n";
  metrics::Table table({"loss_rate", "mean_fresh", "within_tau", "valid_answers"});
  for (double loss : {0.0, 0.1, 0.3, 0.5}) {
    auto cfg = base;
    cfg.scheme = runner::SchemeKind::kHierarchical;
    cfg.hierarchical.useOracleRates = true;
    cfg.network.contactLossRate = loss;
    const auto out = runner::runExperiment(cfg);
    table.addRow({metrics::fmt(loss, 1), metrics::fmt(out.results.meanFreshFraction),
                  metrics::fmt(out.results.refreshWithinPeriodRatio),
                  metrics::fmt(out.results.queries.successRatio())});
  }
  table.print(std::cout);
}

void relayAssist(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << ": relay-assisted delivery ---\n";
  metrics::Table table({"relays", "mean_fresh", "within_tau", "refresh_MB"});
  for (const bool relays : {true, false}) {
    auto cfg = base;
    cfg.hierarchical.relayAssisted = relays;
    cfg.hierarchical.useOracleRates = true;
    const auto out = run(cfg);
    table.addRow({relays ? "on" : "off", metrics::fmt(out.results.meanFreshFraction),
                  metrics::fmt(out.results.refreshWithinPeriodRatio),
                  bench::mb(out.results.transfers.of(net::Traffic::kRefresh).bytes)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("F8", "hierarchy design ablations");
  fanoutSweep("infocom-like", runner::presetConfig("infocom"), true);
  // Raw tree quality is visible only when relays cannot paper over weak
  // edges — the sparse trace with relays off is where structure matters.
  fanoutSweep("infocom-like", runner::presetConfig("infocom"), false);
  attachmentModel("infocom-like", runner::presetConfig("infocom"));
  attachmentModel("reality-like", runner::presetConfig("reality"));
  maintenanceModes("infocom-like", runner::presetConfig("infocom"));
  relayAssist("reality-like", runner::presetConfig("reality"));
  contactLoss("infocom-like", runner::presetConfig("infocom"));
  return 0;
}
