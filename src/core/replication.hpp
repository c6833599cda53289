#pragma once

/// \file replication.hpp
/// Probabilistic replication of refresh responsibility.
///
/// A refresh hierarchy alone gives each node one refresher (its parent);
/// for weakly-connected nodes, P(refresh within τ) through the parent chain
/// can fall below the freshness requirement θ. Replication assigns extra
/// *helpers*: tree members who add the node to their responsibility set.
///
/// The combined probability model (independence across refreshers, helpers
/// decomposed into "helper is fresh by τ/2" × "helper meets target in the
/// remaining τ/2") is in core/freshness.hpp. Helper selection is greedy:
/// candidates are ranked and added until the bound reaches θ, the per-node
/// helper cap is hit, or candidates run out. Ranking order is an ablation
/// knob (F5/F6): by marginal contribution (default) or by raw contact rate
/// to the target.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/hierarchy.hpp"
#include "obs/tracer.hpp"
#include "sim/time.hpp"

namespace dtncache::core {

/// Optional observability context for planReplication: when `tracer` is
/// set, every helper placement is emitted as a `helper_assign` event
/// labeled with the item and the (sim-)time the plan was computed at.
struct PlanTrace {
  obs::Tracer* tracer = nullptr;
  std::uint32_t item = 0;
  sim::SimTime now = 0.0;
};

enum class HelperOrder {
  kBestContribution,  ///< greedy on h_k (freshness-weighted reach)
  kHighestRate,       ///< greedy on λ_k,target alone (ignores helper staleness)
};

struct ReplicationConfig {
  bool enabled = true;
  /// Freshness requirement: every member should be refreshed within one
  /// period with probability ≥ θ.
  double theta = 0.9;
  std::size_t maxHelpersPerNode = 4;
  HelperOrder order = HelperOrder::kBestContribution;
  /// Optional multiplicative weight on each candidate's ranking key —
  /// e.g. remaining battery fraction, so drained nodes are not volunteered
  /// for extra duty. Affects only the greedy order, never the predicted
  /// probability (a weighted-down helper still refreshes as well if
  /// chosen).
  std::function<double(NodeId)> helperWeight;
};

/// The planned helper assignments for one item's hierarchy.
///
/// Storage is dense by NodeId (node ids index the trace's node table, so
/// the vectors are small): helper lists and predictions are one indexed
/// load, and isHelper — evaluated for every (member, member) pair when a
/// push table is built — is an indexed load plus a scan of at most
/// maxHelpersPerNode entries, with no hashing.
class ReplicationPlan {
 public:
  /// True if `refresher` must push fresh versions to `target` (helper edge;
  /// tree edges live in the hierarchy itself).
  bool isHelper(NodeId refresher, NodeId target) const {
    if (target >= helpers_.size()) return false;
    for (NodeId h : helpers_[target])
      if (h == refresher) return true;
    return false;
  }

  const std::vector<NodeId>& helpersOf(NodeId target) const {
    return target < helpers_.size() ? helpers_[target] : kEmpty;
  }

  /// Predicted P(refresh within τ) after replication (chain + helpers).
  double predictedProbability(NodeId target) const;

  std::size_t totalAssignments() const { return totalAssignments_; }
  /// Nodes whose predicted probability still misses θ (rate-starved nodes
  /// no helper set can fix); empty when the requirement is met everywhere.
  const std::vector<NodeId>& unmetNodes() const { return unmet_; }

 private:
  friend ReplicationPlan planReplication(const RefreshHierarchy&, const RateFn&,
                                         sim::SimTime, const ReplicationConfig&,
                                         const PlanTrace&);
  std::vector<NodeId>& helperSlot(NodeId target) {
    if (target >= helpers_.size()) helpers_.resize(target + 1);
    return helpers_[target];
  }
  std::vector<std::vector<NodeId>> helpers_;  ///< indexed by target NodeId
  std::vector<double> predicted_;             ///< indexed by target; -1 = none
  std::vector<NodeId> unmet_;
  std::size_t totalAssignments_ = 0;
  static const std::vector<NodeId> kEmpty;
};

/// Compute helper assignments for every below-root member of `hierarchy`.
/// `trace` labels and emits each copy placement when tracing is wired.
ReplicationPlan planReplication(const RefreshHierarchy& hierarchy, const RateFn& rate,
                                sim::SimTime tau, const ReplicationConfig& config,
                                const PlanTrace& trace = {});

}  // namespace dtncache::core
