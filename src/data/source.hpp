#pragma once

/// \file source.hpp
/// The source-refresh process: drives version bumps on the simulator and
/// notifies listeners (refresh schemes, metrics) when a new version exists.
///
/// Freshness is defined against the VersionClock, so the process carries no
/// version state of its own; its job is purely to turn the periodic
/// timeline into simulation events.

#include <functional>
#include <vector>

#include "data/item.hpp"
#include "sim/simulator.hpp"

namespace dtncache::data {

/// Called when `item` gains a new version at time t.
using RefreshListener = std::function<void(ItemId item, Version newVersion, sim::SimTime t)>;

class SourceProcess {
 public:
  /// Schedules a version-bump event for every item in the catalog, from the
  /// current simulator time until `horizon`. Listeners added before run()
  /// observe every bump. `scope` is the bump events' sharded-kernel scope:
  /// pass the installed scheme's timerScope(TimerKind::kNewVersion) — bumps
  /// only touch the collector and the tracer, so they are shard-local.
  SourceProcess(sim::Simulator& simulator, const Catalog& catalog, sim::SimTime horizon,
                sim::EventScope scope = sim::EventScope::kFence);

  void addListener(RefreshListener listener) { listeners_.push_back(std::move(listener)); }

  /// Total version bumps fired so far (across items).
  std::size_t refreshCount() const { return refreshCount_; }

 private:
  void scheduleNext(ItemId item, sim::SimTime after);

  sim::Simulator& simulator_;
  const Catalog& catalog_;
  sim::SimTime horizon_;
  sim::EventScope scope_;
  std::vector<RefreshListener> listeners_;
  std::size_t refreshCount_ = 0;
};

}  // namespace dtncache::data
