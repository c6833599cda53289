#pragma once

/// \file hierarchical_scheme.hpp
/// The paper's scheme: distributed hierarchical freshness maintenance with
/// probabilistic replication.
///
/// Per item, the caching nodes are arranged in a RefreshHierarchy rooted at
/// the source, plus the helper assignments of a ReplicationPlan. On every
/// contact, a node pushes its version of an item to the peer iff
///   (a) the peer is in its responsibility set (tree child or helper
///       target), and
///   (b) the metadata handshake showed the peer's version is older.
/// Hierarchies are built from contact-rate knowledge — either the shared
/// online estimator (default; imperfect, improves over time) or an oracle
/// rate matrix (ablation F9) — and maintained periodically. Every tick
/// re-derives every item from the current rates; nothing is reused across
/// ticks:
///   - kRebuild: reconstruct tree + plan from current estimates (the
///     centralized upper bound for maintenance quality);
///   - kLocalRepair: every node re-evaluates only its own parent edge and
///     re-parents when a better parent improves its end-to-end refresh
///     probability materially — the distributed operation the paper's
///     title refers to;
///   - kStatic: never touched after construction (ablation).

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cache/coop_cache.hpp"
#include "cache/refresh_scheme.hpp"
#include "core/hierarchy.hpp"
#include "core/push_targets.hpp"
#include "core/replication.hpp"
#include "core/slot_index.hpp"
#include "trace/estimator.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::core {

enum class MaintenanceMode { kRebuild, kLocalRepair, kStatic };

/// Key of the relay budget of (item, target, version) in a `nodeCount`-node
/// network: item·N + target in the high word, the version's low 32 bits in
/// the low word. Distinct (item, target) pairs never share a budget while
/// items·N stays below 2^32.
inline std::uint64_t relayBudgetKey(data::ItemId item, NodeId target, data::Version version,
                                    std::size_t nodeCount) {
  return ((static_cast<std::uint64_t>(item) * nodeCount + target) << 32) |
         (version & 0xffffffffull);
}

struct HierarchicalConfig {
  HierarchyConfig hierarchy;
  ReplicationConfig replication;
  MaintenanceMode maintenance = MaintenanceMode::kLocalRepair;
  sim::SimTime maintenancePeriod = sim::hours(12);
  /// Plan from the true rate matrix instead of the estimator (F9 oracle arm).
  bool useOracleRates = false;

  /// Relay-assisted delivery: a responsible node that meets a better
  /// carrier toward its (absent) target hands it a bounded number of
  /// refresh copies, which travel store-carry-forward like any DTN message.
  /// This is the opportunistic multi-hop delivery the paper's substrate
  /// assumes; turning it off makes every responsibility edge contact-direct
  /// (ablation arm in F8).
  bool relayAssisted = true;
  /// Max relay copies injected per (item, target, version).
  std::uint32_t relayCopiesPerVersion = 2;
  /// With an energy weight installed, carriers below this remaining-battery
  /// fraction are not handed relay copies.
  double minRelayCarrierBattery = 0.15;

};

class HierarchicalRefreshScheme : public cache::RefreshScheme {
 public:
  /// `oracleRates` is required iff config.useOracleRates; not owned.
  explicit HierarchicalRefreshScheme(HierarchicalConfig config,
                                     const trace::RateMatrix* oracleRates = nullptr);

  std::string name() const override { return "Hierarchical"; }
  void onStart(cache::CooperativeCache& cache) override;
  void onContact(cache::CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                 net::ContactChannel& channel) override;

  /// In oracle-rates mode the maintenance tick commutes with worker-run
  /// boring contacts: planning reads the const oracle matrix, never the
  /// estimator, and rebuildItem/localRepairItem only mutate scheme-owned
  /// planning state (hierarchies, plans, push tables, counters, tracer) —
  /// never stores, buffers, or anything the activity fence reads — and
  /// onContact returns before reading any of it when neither endpoint
  /// provides a version, which holds on every boring contact. So the
  /// sharded driver may run it without a barrier. Live-estimator mode
  /// reads worker-written pair state and stays a fence.
  sim::EventScope timerScope(cache::TimerKind kind) const override {
    if (kind == cache::TimerKind::kMaintenance && config_.useOracleRates)
      return sim::EventScope::kShardLocal;
    return RefreshScheme::timerScope(kind);
  }

  /// Churn hook: a caching member left (its children are adopted locally)
  /// or returned (it re-attaches under the best live parent with a free
  /// slot). Replication plans for affected items are recomputed. Wire this
  /// to ChurnProcess::addListener.
  void onNodeStateChanged(cache::CooperativeCache& cache, NodeId node, bool up,
                          sim::SimTime t);
  std::size_t churnRepairs() const { return churnRepairs_; }

  /// Under churn, periodic rebuilds must not re-admit down members; install
  /// the liveness predicate (ChurnProcess::isUp) before onStart.
  void setLivenessPredicate(std::function<bool(NodeId)> live) { live_ = std::move(live); }

  /// Energy-aware planning: weight nodes by remaining battery fraction.
  /// Helper selection ranks candidates by contribution × weight, and relay
  /// copies are not handed to carriers below `minRelayCarrierBattery` —
  /// the two places the scheme decides who spends energy for whom.
  /// Install before onStart to cover the initial plan.
  void setEnergyWeight(std::function<double(NodeId)> weight) {
    nodeWeight_ = weight;
    config_.replication.helperWeight = std::move(weight);
  }

  /// Attach the observability layer (neither owned; both may be null).
  /// Events: plan / helper_assign on every (re)plan, reparent on local
  /// repair, relay_inject per relay handoff, churn_repair on membership
  /// flips, maintenance per periodic pass. Counters under core.*; the
  /// `core.maintenance` timer accumulates planning wall-clock.
  void setObservability(obs::Tracer* tracer, obs::Registry* registry);

  /// Planning-state inspection (tests, benches, examples).
  const RefreshHierarchy& hierarchyOf(data::ItemId item) const;
  const ReplicationPlan& planOf(data::ItemId item) const;
  /// The item's push table, as the contact path reads it.
  const PushTargets& pushTargetsOf(data::ItemId item) const;
  const HierarchicalConfig& config() const { return config_; }
  std::size_t maintenanceRuns() const { return maintenanceRuns_; }
  std::size_t reparentCount() const { return reparentCount_; }
  std::size_t relayInjections() const { return relayInjections_; }

 private:
  /// Planning rates at time `t`: the live estimator, or the oracle matrix
  /// under useOracleRates.
  RateFn liveRateFn(cache::CooperativeCache& cache, sim::SimTime t) const;
  void rebuildItem(cache::CooperativeCache& cache, data::ItemId item, sim::SimTime t);
  void localRepairItem(cache::CooperativeCache& cache, data::ItemId item, sim::SimTime t);
  void runMaintenance(cache::CooperativeCache& cache, sim::SimTime t);
  /// Hand bounded refresh copies for absent targets to a better carrier.
  void injectRelays(cache::CooperativeCache& cache, NodeId holder, NodeId carrier,
                    sim::SimTime t, net::ContactChannel& channel);

  /// Recompute (and trace) the item's replication plan, then its push
  /// tables. Every structural change of a hierarchy ends here.
  void replan(cache::CooperativeCache& cache, data::ItemId item, sim::SimTime t,
              const RateFn& rate);

  /// One member's row of an item's push table: the item and the node's
  /// span of pushTargets_[item].targets.
  struct MemberEntry {
    data::ItemId item;
    std::uint32_t begin;
    std::uint32_t end;
  };
  /// Rebuild pushTargets_[item] from the item's hierarchy and plan, and
  /// move the item's rows in memberItems_ / targetItems_ to the new members.
  void installPushTargets(data::ItemId item);
  std::span<const NodeId> targetsIn(const MemberEntry& e) const {
    const std::vector<NodeId>& targets = pushTargets_[e.item].targets;
    return {targets.data() + e.begin, targets.data() + e.end};
  }

  HierarchicalConfig config_;
  const trace::RateMatrix* oracleRates_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* ctrMaintenanceRuns_ = nullptr;
  obs::Counter* ctrReparents_ = nullptr;
  obs::Counter* ctrRelayInjected_ = nullptr;
  obs::Counter* ctrChurnRepairs_ = nullptr;
  obs::Counter* ctrPlanHelpers_ = nullptr;
  obs::Counter* ctrPlanUnmet_ = nullptr;
  obs::Timer* maintenanceTimer_ = nullptr;
  std::vector<RefreshHierarchy> hierarchies_;  ///< per item
  std::vector<ReplicationPlan> plans_;         ///< per item
  /// Contact-path view of hierarchies_ + plans_, written only by
  /// installPushTargets. Sized by members: a node has one row per item it
  /// is a member of (memberItems_) and one per item it has a target in
  /// (targetItems_), each list ascending by item.
  std::vector<PushTargets> pushTargets_;  ///< per item
  std::vector<std::vector<MemberEntry>> memberItems_;  ///< per node
  std::vector<std::vector<MemberEntry>> targetItems_;  ///< per node
  std::size_t maintenanceRuns_ = 0;
  std::size_t reparentCount_ = 0;
  std::size_t relayInjections_ = 0;
  std::size_t churnRepairs_ = 0;
  std::function<bool(NodeId)> live_;
  std::function<double(NodeId)> nodeWeight_;

  /// (item, target, version) → relay copies already injected. Flat-store
  /// pattern: the packed key indexes a dense count vector through the
  /// open-addressing index (one probe per relay evaluation, no hash-map
  /// node allocations).
  std::uint32_t& relayBudgetSlot(std::uint64_t key) {
    std::uint32_t slot = relayBudgetIndex_.find(key);
    if (slot == core::SlotIndex::kNoSlot) {
      slot = static_cast<std::uint32_t>(relayBudgetCounts_.size());
      relayBudgetCounts_.push_back(0);
      relayBudgetIndex_.insert(key, slot);
    }
    return relayBudgetCounts_[slot];
  }
  core::SlotIndex relayBudgetIndex_;
  std::vector<std::uint32_t> relayBudgetCounts_;
};

}  // namespace dtncache::core
