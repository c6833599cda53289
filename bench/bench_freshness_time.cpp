/// Experiment F2 — cache freshness over time, all schemes, both traces.
/// Paper analogue: the headline "freshness ratio" comparison. Expected
/// shape: Flooding ≥ Hierarchical ≫ SourceDirect ≈ Pull ≫ NoRefresh, with
/// Hierarchical close to the flooding ceiling at a fraction of its cost.
///
/// Stays C++ because freshness(t) is a series, not a record scalar; the
/// summary table shares its runs. scripts/figures.py renders F2's 5-seed
/// confirmation table from a dtncache_sweep grid after this binary.

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

void runScenario(const char* name, runner::ExperimentConfig base, std::size_t jobs) {
  std::cout << "\n--- " << name << " ---\n";
  metrics::Table summary({"scheme", "mean_fresh", "final_fresh", "mean_valid",
                          "refresh_within_tau", "refresh_MB"});
  std::vector<std::pair<std::string, sim::TimeSeries>> series;
  // One simulation per scheme — independent cells, pooled via the engine.
  std::vector<runner::ExperimentConfig> configs;
  for (const auto kind : runner::allSchemes()) {
    base.scheme = kind;
    configs.push_back(base);
  }
  for (const auto& out : sweep::runParallel(configs, jobs)) {
    const auto& r = out.results;
    summary.addRow({out.scheme, metrics::fmt(r.meanFreshFraction),
                    metrics::fmt(r.finalFreshFraction), metrics::fmt(r.meanValidFraction),
                    metrics::fmt(r.refreshWithinPeriodRatio),
                    bench::mb(r.transfers.of(net::Traffic::kRefresh).bytes)});
    series.push_back({out.scheme, r.freshOverTime});
  }
  summary.print(std::cout);

  // Plot-ready CSV next to the printed table.
  std::string slug = name;
  slug = slug.substr(0, slug.find(' '));
  const std::string csvPath = "/tmp/dtncache_f2_" + slug + ".csv";
  metrics::writeTimeSeriesCsv(csvPath, series);
  std::cout << "\n(full series written to " << csvPath << ")\n";

  // Time series, downsampled to 12 points per scheme (plot data).
  std::cout << "\nfreshness(t) series (fraction, sampled):\n";
  std::vector<std::string> headers{"t_days"};
  for (const auto& [name2, s] : series) headers.push_back(name2);
  metrics::Table ts(headers);
  const auto base0 = series.front().second.resampled(12);
  for (std::size_t i = 0; i < base0.size(); ++i) {
    std::vector<std::string> row{metrics::fmt(sim::toDays(base0[i].time), 1)};
    for (const auto& [name2, s] : series) {
      const auto pts = s.resampled(12);
      row.push_back(i < pts.size() ? metrics::fmt(pts[i].value) : "-");
    }
    ts.addRow(row);
  }
  ts.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench::jobsArg(argc, argv);
  runScenario("reality-like (tau = 2 days)", runner::presetConfig("reality"), jobs);
  runScenario("infocom-like (tau = 6 h)", runner::presetConfig("infocom"), jobs);
  return 0;
}
