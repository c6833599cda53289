/// Experiment F4 — impact of the number of caching nodes per item (R).
/// Paper analogue: scaling the caching-node set. Expected shape: more
/// caching nodes increase query answerability but dilute freshness for the
/// weaker schemes (more copies to keep fresh); the hierarchical scheme
/// holds freshness by growing the tree, at proportional refresh cost.
///
/// Grid cells (R × scheme) run on the sweep engine's thread pool
/// (`--jobs N`); the table is identical at any jobs count.

#include <iostream>
#include <iterator>

#include "bench/common.hpp"

using namespace dtncache;

namespace {

constexpr std::size_t kCachingNodes[] = {4, 8, 12, 16};
constexpr runner::SchemeKind kSchemes[] = {runner::SchemeKind::kHierarchical,
                                           runner::SchemeKind::kSourceDirect,
                                           runner::SchemeKind::kEpidemic};

void runScenario(const char* name, const runner::ExperimentConfig& base,
                 std::size_t jobs) {
  std::cout << "\n--- " << name << " ---\n";
  std::vector<runner::ExperimentConfig> configs;
  for (const std::size_t r : kCachingNodes) {
    for (const auto kind : kSchemes) {
      auto cfg = base;
      cfg.scheme = kind;
      cfg.cache.cachingNodesPerItem = r;
      configs.push_back(cfg);
    }
  }
  const auto outputs = sweep::runParallel(configs, jobs);

  metrics::Table table({"caching_nodes", "scheme", "mean_fresh", "valid_answers",
                        "answered", "refresh_MB", "tree_depth"});
  std::size_t next = 0;
  for (const std::size_t r : kCachingNodes) {
    for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
      const auto& out = outputs[next++];
      table.addRow({std::to_string(r), out.scheme,
                    metrics::fmt(out.results.meanFreshFraction),
                    metrics::fmt(out.results.queries.successRatio()),
                    metrics::fmt(out.results.queries.answeredRatio()),
                    bench::mb(out.results.transfers.of(net::Traffic::kRefresh).bytes),
                    std::to_string(out.maxHierarchyDepth)});
    }
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench::jobsArg(argc, argv);
  bench::banner("F4", "freshness & access vs caching-node count R");
  runScenario("reality-like", runner::presetConfig("reality"), jobs);
  runScenario("infocom-like", runner::presetConfig("infocom"), jobs);
  return 0;
}
