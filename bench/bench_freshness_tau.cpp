/// Experiment F3 — freshness vs refresh period τ.
/// Paper analogue: sensitivity of every scheme to how frequently data is
/// refreshed. Expected shape: all schemes degrade as τ shrinks (less time
/// to propagate each version); the hierarchical scheme degrades most
/// gracefully among the practical schemes and tracks the flooding ceiling.
///
/// Grid cells (τ × scheme) are independent simulations and run on the
/// sweep engine's thread pool (`--jobs N`); the table is identical at any
/// jobs count.

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

void runScenario(const char* name, const runner::ExperimentConfig& base,
                 const std::vector<double>& tauHours, std::size_t jobs) {
  std::cout << "\n--- " << name << " ---\n";
  std::vector<std::string> headers{"tau_hours"};
  for (const auto kind : runner::allSchemes()) headers.push_back(runner::schemeName(kind));

  std::vector<runner::ExperimentConfig> configs;
  for (double tau : tauHours) {
    for (const auto kind : runner::allSchemes()) {
      auto cfg = base;
      cfg.scheme = kind;
      cfg.catalog.refreshPeriod = sim::hours(tau);
      configs.push_back(cfg);
    }
  }
  const auto outputs = sweep::runParallel(configs, jobs);

  metrics::Table table(headers);
  std::size_t next = 0;
  for (double tau : tauHours) {
    std::vector<std::string> row{metrics::fmt(tau, 0)};
    for (std::size_t s = 0; s < runner::allSchemes().size(); ++s)
      row.push_back(metrics::fmt(outputs[next++].results.meanFreshFraction));
    table.addRow(row);
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench::jobsArg(argc, argv);
  bench::banner("F3", "mean freshness vs refresh period tau");
  runScenario("reality-like", runner::presetConfig("reality"), {24, 48, 96, 168}, jobs);
  runScenario("infocom-like", runner::presetConfig("infocom"), {2, 4, 6, 12, 24}, jobs);
  return 0;
}
