/// Experiment F6 — maintenance overhead.
/// Paper analogue: the cost side of the headline claim. Reports refresh
/// bytes/messages per scheme (and the full per-category traffic breakdown
/// for the hierarchical scheme), plus overhead vs θ: tightening the
/// freshness requirement buys helpers, whose cost grows super-linearly as
/// θ → 1.

#include <iostream>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

void schemeOverhead(const char* name, runner::ExperimentConfig base) {
  std::cout << "\n--- " << name << ": per-scheme refresh overhead ---\n";
  metrics::Table table({"scheme", "mean_fresh", "refresh_MB", "refresh_msgs",
                        "MB_per_fresh_point"});
  for (const auto kind : runner::allSchemes()) {
    base.scheme = kind;
    const auto out = runner::runExperiment(base);
    const auto& refresh = out.results.transfers.of(net::Traffic::kRefresh);
    const double megabytes = static_cast<double>(refresh.bytes) / (1024.0 * 1024.0);
    const double fresh = out.results.meanFreshFraction;
    table.addRow({out.scheme, metrics::fmt(fresh), bench::mb(refresh.bytes),
                  std::to_string(refresh.messages),
                  fresh > 0.01 ? metrics::fmt(megabytes / (100.0 * fresh), 2) : "-"});
  }
  table.print(std::cout);
}

void categoryBreakdown(const char* name, runner::ExperimentConfig base) {
  std::cout << "\n--- " << name << ": hierarchical traffic breakdown ---\n";
  base.scheme = runner::SchemeKind::kHierarchical;
  const auto out = runner::runExperiment(base);
  metrics::Table table({"category", "messages", "MB"});
  for (const auto cat : {net::Traffic::kControl, net::Traffic::kRefresh,
                         net::Traffic::kPlacement, net::Traffic::kQuery,
                         net::Traffic::kReply, net::Traffic::kPull}) {
    const auto& c = out.results.transfers.of(cat);
    table.addRow({net::trafficName(cat), std::to_string(c.messages), bench::mb(c.bytes)});
  }
  table.print(std::cout);
}

void overheadVsTheta(const char* name, runner::ExperimentConfig base) {
  std::cout << "\n--- " << name << ": refresh overhead vs theta ---\n";
  metrics::Table table({"theta", "helpers", "refresh_MB", "achieved"});
  for (double theta : {0.5, 0.7, 0.9, 0.95, 0.99}) {
    auto cfg = base;
    cfg.scheme = runner::SchemeKind::kHierarchical;
    cfg.hierarchical.replication.theta = theta;
    cfg.hierarchical.useOracleRates = true;
    const auto out = runner::runExperiment(cfg);
    table.addRow({metrics::fmt(theta, 2), std::to_string(out.replicationAssignments),
                  bench::mb(out.results.transfers.of(net::Traffic::kRefresh).bytes),
                  metrics::fmt(out.results.refreshWithinPeriodRatio)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::banner("F6", "freshness-maintenance overhead");
  schemeOverhead("infocom-like", runner::presetConfig("infocom"));
  categoryBreakdown("infocom-like", runner::presetConfig("infocom"));
  overheadVsTheta("infocom-like", runner::presetConfig("infocom"));
  schemeOverhead("reality-like", runner::presetConfig("reality"));
  return 0;
}
