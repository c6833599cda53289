/// Experiment T1 — trace characteristics table.
/// Paper analogue: the "trace statistics" table every trace-driven DTN
/// evaluation opens with (nodes, duration, contacts, pairwise density).
/// Ours describes the synthetic stand-ins for Reality and Infocom'06.
/// Stays C++ because it describes traces, not experiment runs.

#include <iostream>

#include "bench/common.hpp"
#include "trace/generators.hpp"

int main() {
  using namespace dtncache;
  metrics::Table table({"trace", "nodes", "days", "contacts", "pairs_met",
                        "contacts_per_pair_day", "mean_contact_s"});
  for (const auto& [name, cfg] :
       {std::pair{"reality-like", runner::presetConfig("reality")},
        std::pair{"infocom-like", runner::presetConfig("infocom")}}) {
    const auto world = trace::generate(cfg.trace);
    const auto s = world.trace.stats();
    table.addRow({name, std::to_string(s.nodeCount),
                  metrics::fmt(sim::toDays(s.duration), 1), std::to_string(s.contactCount),
                  std::to_string(s.pairsThatMet), metrics::fmt(s.meanContactsPerPairPerDay, 3),
                  metrics::fmt(s.meanContactDuration, 0)});
  }
  table.print(std::cout);

  std::cout << "\nReference (real traces): Reality 97 nodes / 246 days / ~0.1 "
               "contacts-pair-day;\nInfocom'06 78 nodes / ~4 days / dense "
               "conference mixing.\n";
  return 0;
}
