#include "core/replication.hpp"

#include <algorithm>
#include <optional>

#include "core/freshness.hpp"
#include "sim/assert.hpp"

namespace dtncache::core {

const std::vector<NodeId> ReplicationPlan::kEmpty{};

double ReplicationPlan::predictedProbability(NodeId target) const {
  DTNCACHE_CHECK_MSG(target < predicted_.size() && predicted_[target] >= 0.0,
                     "no prediction for node " << target);
  return predicted_[target];
}

ReplicationPlan planReplication(const RefreshHierarchy& hierarchy, const RateFn& rate,
                                sim::SimTime tau, const ReplicationConfig& config,
                                const PlanTrace& trace) {
  DTNCACHE_CHECK(config.theta >= 0.0 && config.theta <= 1.0);
  DTNCACHE_CHECK(tau > 0.0);

  ReplicationPlan plan;
  const auto& members = hierarchy.membersBelowRoot();

  // One prepared CDF per distinct chain: every node below θ evaluates every
  // other member as a helper candidate, so without this cache the O(k²)
  // survival-weight products behind hypoexponentialCdf are recomputed for
  // each (target, candidate) pairing. Prepared once per node, the τ and τ/2
  // evaluations reuse the partial products. Bit-identical to the uncached
  // closed form (HypoexpCdf performs the exact same operations). Node ids
  // are dense (they index the trace's node table), so a flat vector beats
  // the hash map this used to be: one indexed load per chain lookup.
  NodeId maxId = hierarchy.root();
  for (NodeId m : members) maxId = std::max(maxId, m);
  std::vector<std::optional<HypoexpCdf>> chainCdf(static_cast<std::size_t>(maxId) + 1);
  const auto chainOf = [&](NodeId n) -> const HypoexpCdf& {
    auto& slot = chainCdf[n];
    if (!slot) slot.emplace(hierarchy.chainRates(n, rate));
    return *slot;
  };

  for (NodeId target : members) {
    const double chainP = chainOf(target).cdf(tau);
    double combined = chainP;
    std::vector<NodeId>& assigned = plan.helperSlot(target);

    if (config.enabled && chainP < config.theta) {
      // Candidates: every member (root included) except the target, its
      // parent (already the primary refresher), and the target's own
      // descendants (they get fresh *through* the target — circular).
      struct Candidate {
        NodeId node;
        double contribution;
        double rateToTarget;
      };
      std::vector<Candidate> candidates;
      auto consider = [&](NodeId k) {
        if (k == target || k == hierarchy.parentOf(target)) return;
        if (hierarchy.isAncestor(target, k)) return;
        const double r = rate(k, target);
        if (r <= 0.0) return;
        const double h = helperContribution(chainOf(k), r, tau);
        if (h <= 0.0) return;
        candidates.push_back({k, h, r});
      };
      consider(hierarchy.root());
      for (NodeId k : members) consider(k);

      auto rankingKey = [&config](const Candidate& c) {
        double key = config.order == HelperOrder::kBestContribution ? c.contribution
                                                                    : c.rateToTarget;
        if (config.helperWeight) key *= config.helperWeight(c.node);
        return key;
      };
      std::sort(candidates.begin(), candidates.end(),
                [&rankingKey](const Candidate& a, const Candidate& b) {
                  const double ka = rankingKey(a);
                  const double kb = rankingKey(b);
                  if (ka != kb) return ka > kb;
                  return a.node < b.node;  // deterministic
                });

      std::vector<double> contributions;
      for (const Candidate& c : candidates) {
        if (assigned.size() >= config.maxHelpersPerNode) break;
        if (combined >= config.theta) break;
        assigned.push_back(c.node);
        contributions.push_back(c.contribution);
        combined = combinedRefreshProbability(chainP, contributions);
        DTNCACHE_EVENT(trace.tracer, obs::EventKind::kHelperAssign, trace.now,
                       {"item", trace.item}, {"target", target}, {"helper", c.node},
                       {"p", combined});
      }
      plan.totalAssignments_ += assigned.size();
    }

    if (target >= plan.predicted_.size()) plan.predicted_.resize(target + 1, -1.0);
    plan.predicted_[target] = combined;
    if (combined < config.theta) plan.unmet_.push_back(target);
  }
  std::sort(plan.unmet_.begin(), plan.unmet_.end());
  return plan;
}

}  // namespace dtncache::core
