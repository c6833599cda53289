/// Experiment F9 — sensitivity to contact-rate knowledge.
/// The scheme plans hierarchies and helper sets from estimated rates; this
/// ablation compares oracle knowledge against the online estimator in its
/// three modes and several sliding-window lengths, plus no warm-up at all.
/// Expected shape: oracle ≥ cumulative ≈ long-window > short-window ≈ ewma,
/// and everything comfortably above NoRefresh — the scheme degrades
/// gracefully under estimate noise (maintenance repairs bad edges).

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

void runScenario(const char* name, const runner::ExperimentConfig& base) {
  std::cout << "\n--- " << name << " ---\n";
  metrics::Table table({"rate_knowledge", "mean_fresh", "within_tau", "reparents"});

  auto addRow = [&](const std::string& label, runner::ExperimentConfig cfg) {
    cfg.scheme = runner::SchemeKind::kHierarchical;
    const auto out = runner::runExperiment(cfg);
    table.addRow({label, metrics::fmt(out.results.meanFreshFraction),
                  metrics::fmt(out.results.refreshWithinPeriodRatio),
                  std::to_string(out.reparentCount)});
  };

  {
    auto cfg = base;
    cfg.hierarchical.useOracleRates = true;
    addRow("oracle", cfg);
  }
  {
    auto cfg = base;
    cfg.estimator.mode = trace::EstimatorMode::kCumulative;
    addRow("cumulative", cfg);
  }
  for (double windowDays : {1.0, 3.0, 7.0}) {
    auto cfg = base;
    cfg.estimator.mode = trace::EstimatorMode::kSlidingWindow;
    cfg.estimator.window = sim::days(windowDays);
    addRow("window_" + metrics::fmt(windowDays, 0) + "d", cfg);
  }
  {
    auto cfg = base;
    cfg.estimator.mode = trace::EstimatorMode::kEwma;
    addRow("ewma", cfg);
  }
  {
    auto cfg = base;
    cfg.estimator.mode = trace::EstimatorMode::kCumulative;
    cfg.estimatorWarmup = 0.0;  // cold start: first tree is arbitrary
    addRow("cold_start", cfg);
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("F9", "estimator sensitivity (rate knowledge ablation)");
  runScenario("infocom-like", runner::presetConfig("infocom"));
  runScenario("reality-like", runner::presetConfig("reality"));
  return 0;
}
