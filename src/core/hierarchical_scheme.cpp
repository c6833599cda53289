#include "core/hierarchical_scheme.hpp"

#include "core/freshness.hpp"
#include "sim/assert.hpp"

namespace dtncache::core {

HierarchicalRefreshScheme::HierarchicalRefreshScheme(HierarchicalConfig config,
                                                     const trace::RateMatrix* oracleRates)
    : config_(config), oracleRates_(oracleRates) {
  DTNCACHE_CHECK_MSG(!config_.useOracleRates || oracleRates_ != nullptr,
                     "useOracleRates requires an oracle rate matrix");
}

void HierarchicalRefreshScheme::setObservability(obs::Tracer* tracer,
                                                 obs::Registry* registry) {
  tracer_ = tracer;
  if (registry == nullptr) {
    ctrMaintenanceRuns_ = nullptr;
    ctrReparents_ = nullptr;
    ctrRelayInjected_ = nullptr;
    ctrChurnRepairs_ = nullptr;
    ctrPlanHelpers_ = nullptr;
    ctrPlanUnmet_ = nullptr;
    maintenanceTimer_ = nullptr;
    return;
  }
  ctrMaintenanceRuns_ = &registry->counter("core.maintenance.runs");
  ctrReparents_ = &registry->counter("core.reparent.count");
  ctrRelayInjected_ = &registry->counter("core.relay.injected");
  ctrChurnRepairs_ = &registry->counter("core.churn.repairs");
  ctrPlanHelpers_ = &registry->counter("core.plan.helpers");
  ctrPlanUnmet_ = &registry->counter("core.plan.unmet");
  maintenanceTimer_ = &registry->timer("core.maintenance");
}

void HierarchicalRefreshScheme::replan(cache::CooperativeCache& cache, data::ItemId item,
                                       sim::SimTime t, const RateFn& rate) {
  const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
  plans_[item] = planReplication(hierarchies_[item], rate, tau, config_.replication,
                                 PlanTrace{tracer_, item, t});
  const ReplicationPlan& plan = plans_[item];
  if (ctrPlanHelpers_ != nullptr) ctrPlanHelpers_->add(plan.totalAssignments());
  if (ctrPlanUnmet_ != nullptr) ctrPlanUnmet_->add(plan.unmetNodes().size());
  DTNCACHE_EVENT(tracer_, obs::EventKind::kPlan, t, {"item", item},
                 {"helpers", plan.totalAssignments()}, {"unmet", plan.unmetNodes().size()});
}

RateFn HierarchicalRefreshScheme::liveRateFn(cache::CooperativeCache& cache,
                                             sim::SimTime t) const {
  if (config_.useOracleRates) {
    const trace::RateMatrix* m = oracleRates_;
    return [m](NodeId i, NodeId j) { return m->rate(i, j); };
  }
  trace::ContactRateEstimator* est = &cache.estimator();
  return [est, t](NodeId i, NodeId j) { return est->rate(i, j, t); };
}

void HierarchicalRefreshScheme::rebuildItem(cache::CooperativeCache& cache,
                                            data::ItemId item, sim::SimTime t) {
  const auto rate = liveRateFn(cache, t);
  const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
  std::vector<NodeId> members;
  for (NodeId n : cache.cachingNodesOf(item))
    if (!live_ || live_(n)) members.push_back(n);
  hierarchies_[item] =
      RefreshHierarchy::build(cache.sourceOf(item), members, rate, tau, config_.hierarchy);
  replan(cache, item, t, rate);
}

void HierarchicalRefreshScheme::localRepairItem(cache::CooperativeCache& cache,
                                                data::ItemId item, sim::SimTime t) {
  const auto rate = liveRateFn(cache, t);
  const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
  RefreshHierarchy& h = hierarchies_[item];

  // Each member independently evaluates its own parent edge — the only
  // structural knowledge a node needs is the candidate parents' chains,
  // which the metadata handshake carries in a deployment. Snapshot the
  // member order: repairs re-parent mid-loop, which invalidates the
  // hierarchy's cached BFS list.
  const std::vector<NodeId> members = h.membersBelowRoot();
  for (NodeId n : members) {
    const double current = chainRefreshProbability(h.chainRates(n, rate), tau);
    NodeId bestParent = kNoNode;
    double bestScore = current;
    auto considerParent = [&](NodeId p) {
      if (p == n || p == h.parentOf(n)) return;
      if (h.isAncestor(n, p)) return;  // would create a cycle
      if (h.childrenOf(p).size() >= config_.hierarchy.fanoutBound) return;
      auto chain = h.chainRates(p, rate);
      chain.push_back(rate(p, n));
      const double score = chainRefreshProbability(chain, tau);
      if (score > bestScore) {
        bestScore = score;
        bestParent = p;
      }
    };
    considerParent(h.root());
    for (NodeId p : h.membersBelowRoot()) considerParent(p);

    if (bestParent != kNoNode &&
        bestScore >= current * (1.0 + config_.repairImprovement)) {
      h.reparent(n, bestParent, config_.hierarchy.fanoutBound);
      ++reparentCount_;
      if (ctrReparents_ != nullptr) ctrReparents_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kReparent, t, {"item", item}, {"node", n},
                     {"parent", bestParent});
    }
  }
  replan(cache, item, t, rate);
}

void HierarchicalRefreshScheme::runMaintenance(cache::CooperativeCache& cache,
                                               sim::SimTime t) {
  ++maintenanceRuns_;
  if (ctrMaintenanceRuns_ != nullptr) ctrMaintenanceRuns_->add();
  obs::ScopedTimer timed(maintenanceTimer_);
  const std::size_t reparentsBefore = reparentCount_;
  for (data::ItemId item = 0; item < cache.catalog().size(); ++item) {
    switch (config_.maintenance) {
      case MaintenanceMode::kRebuild:
        rebuildItem(cache, item, t);
        break;
      case MaintenanceMode::kLocalRepair:
        localRepairItem(cache, item, t);
        break;
      case MaintenanceMode::kStatic:
        break;  // unreachable: kStatic schedules no maintenance
    }
    hierarchies_[item].checkInvariants();
  }

  DTNCACHE_EVENT(tracer_, obs::EventKind::kMaintenance, t,
                 {"items", cache.catalog().size()},
                 {"reparented", reparentCount_ - reparentsBefore});
}

void HierarchicalRefreshScheme::onStart(cache::CooperativeCache& cache) {
  const sim::SimTime now = cache.simulator().now();
  const std::size_t items = cache.catalog().size();
  hierarchies_.clear();
  hierarchies_.resize(items);
  plans_.assign(items, ReplicationPlan{});
  for (data::ItemId item = 0; item < items; ++item) rebuildItem(cache, item, now);

  if (config_.maintenance != MaintenanceMode::kStatic) {
    cache.simulator().schedulePeriodic(
        config_.maintenancePeriod,
        [this, &cache](sim::SimTime t) { runMaintenance(cache, t); },
        config_.maintenancePeriod, timerScope(cache::TimerKind::kMaintenance));
  }
}

bool HierarchicalRefreshScheme::responsible(data::ItemId item, NodeId refresher,
                                            NodeId target) const {
  const RefreshHierarchy& h = hierarchies_[item];
  if (!h.isMember(refresher) || !h.isMember(target)) return false;
  return h.isResponsible(refresher, target) || plans_[item].isHelper(refresher, target);
}

void HierarchicalRefreshScheme::onContact(cache::CooperativeCache& cache, NodeId a, NodeId b,
                                          sim::SimTime t, net::ContactChannel& channel) {
  const std::size_t items = cache.catalog().size();
  for (data::ItemId item = 0; item < items; ++item) {
    const auto va = cache.heldVersion(a, item, t);
    const auto vb = cache.heldVersion(b, item, t);
    if (va && (!vb || *va > *vb) && responsible(item, a, b))
      cache.pushVersion(a, b, item, t, channel, net::Traffic::kRefresh);
    else if (vb && (!va || *vb > *va) && responsible(item, b, a))
      cache.pushVersion(b, a, item, t, channel, net::Traffic::kRefresh);
  }
  if (config_.relayAssisted) {
    injectRelays(cache, a, b, t, channel);
    injectRelays(cache, b, a, t, channel);
  }
}

void HierarchicalRefreshScheme::targetsOf(data::ItemId item, NodeId refresher,
                                          std::vector<NodeId>& out) const {
  out.clear();
  const RefreshHierarchy& h = hierarchies_[item];
  if (!h.isMember(refresher)) return;
  const auto& children = h.childrenOf(refresher);
  out.insert(out.end(), children.begin(), children.end());
  const ReplicationPlan& plan = plans_[item];
  for (NodeId n : h.membersBelowRoot())
    if (plan.isHelper(refresher, n)) out.push_back(n);
}

void HierarchicalRefreshScheme::injectRelays(cache::CooperativeCache& cache, NodeId holder,
                                             NodeId carrier, sim::SimTime t,
                                             net::ContactChannel& channel) {
  // Energy-aware: a nearly-drained carrier is not volunteered for relay
  // duty (it would pay rx now and tx at delivery).
  if (nodeWeight_ && nodeWeight_(carrier) < config_.minRelayCarrierBattery) return;
  const auto& fwd = cache.config().forwarding;
  const std::size_t items = cache.catalog().size();
  for (data::ItemId item = 0; item < items; ++item) {
    const auto held = cache.heldVersion(holder, item, t);
    if (!held) continue;
    const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
    targetsOf(item, holder, targetsScratch_);
    for (NodeId target : targetsScratch_) {
      if (target == carrier) continue;  // direct push already handled
      const auto targetHeld = cache.heldVersion(target, item, t);
      if (targetHeld && *targetHeld >= *held) continue;

      // Strong direct edges need no relay help — save the bandwidth.
      const double mine = cache.estimator().rate(holder, target, t);
      if (trace::contactProbability(mine, tau) >= config_.relayWhenDirectBelow) continue;

      // Only hand to a strictly better carrier toward the target.
      const double theirs = cache.estimator().rate(carrier, target, t);
      if (!net::improvesOn(mine, theirs, fwd.improvementFactor)) continue;

      const std::uint64_t key = (static_cast<std::uint64_t>(item) << 44) ^
                                (static_cast<std::uint64_t>(target) << 32) ^
                                (*held & 0xffffffffull);
      std::uint32_t& used = relayBudgetSlot(key);
      if (used >= config_.relayCopiesPerVersion) continue;

      // Skip if the carrier already holds an equivalent copy in its buffer.
      bool duplicate = false;
      const net::MessageBuffer& carrierBuf = cache.bufferOf(carrier);
      for (std::uint32_t s = carrierBuf.firstSlot(); s != net::MessageBuffer::kNil;
           s = carrierBuf.nextSlot(s)) {
        const net::Message& m = carrierBuf.at(s);
        if (m.kind == net::MessageKind::kDataCopy && m.item == item && m.dst == target &&
            m.version >= *held) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;

      net::Message m;
      m.kind = net::MessageKind::kDataCopy;
      m.item = item;
      m.version = *held;
      m.dst = target;
      m.origin = holder;
      m.createdAt = t;
      m.deadline = t + config_.relayTtlFactor * tau;
      m.copiesLeft = 1;  // the bounded-replication budget is `used`, not spray
      m.payloadBytes = cache.catalog().spec(item).sizeBytes;
      m.category = net::Traffic::kRefresh;
      if (!channel.transfer(net::Traffic::kRefresh, m.wireBytes(), holder)) return;
      cache.injectMessage(carrier, m, t);
      ++used;
      ++relayInjections_;
      if (ctrRelayInjected_ != nullptr) ctrRelayInjected_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kRelayInject, t, {"item", item},
                     {"holder", holder}, {"carrier", carrier}, {"target", target},
                     {"version", *held});
    }
  }
}

void HierarchicalRefreshScheme::onNodeStateChanged(cache::CooperativeCache& cache,
                                                   NodeId node, bool up, sim::SimTime t) {
  const auto rate = liveRateFn(cache, t);
  for (data::ItemId item = 0; item < cache.catalog().size(); ++item) {
    if (!cache.isCachingNode(node, item)) continue;
    RefreshHierarchy& h = hierarchies_[item];
    const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;

    if (!up) {
      if (!h.isMember(node)) continue;
      h.removeMember(node);  // children adopted by the grandparent
      ++churnRepairs_;
      if (ctrChurnRepairs_ != nullptr) ctrChurnRepairs_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kChurnRepair, t, {"item", item},
                     {"node", node}, {"up", false});
    } else {
      if (h.isMember(node)) continue;
      // Re-attach under the live parent with a free slot that maximizes the
      // end-to-end refresh probability. A tree always has a free slot.
      NodeId bestParent = kNoNode;
      double bestScore = -1.0;
      auto consider = [&](NodeId p) {
        if (h.childrenOf(p).size() >= config_.hierarchy.fanoutBound) return;
        auto chain = h.chainRates(p, rate);
        chain.push_back(rate(p, node));
        const double score = chainRefreshProbability(chain, tau);
        if (score > bestScore || (score == bestScore && p < bestParent)) {
          bestScore = score;
          bestParent = p;
        }
      };
      consider(h.root());
      for (NodeId p : h.membersBelowRoot()) consider(p);
      DTNCACHE_CHECK_MSG(bestParent != kNoNode, "no free slot to re-attach node");
      h.addMember(node, bestParent, config_.hierarchy.fanoutBound);
      ++churnRepairs_;
      if (ctrChurnRepairs_ != nullptr) ctrChurnRepairs_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kChurnRepair, t, {"item", item},
                     {"node", node}, {"up", true});
    }
    replan(cache, item, t, rate);
    h.checkInvariants();
  }
}

const RefreshHierarchy& HierarchicalRefreshScheme::hierarchyOf(data::ItemId item) const {
  DTNCACHE_CHECK(item < hierarchies_.size());
  return hierarchies_[item];
}

const ReplicationPlan& HierarchicalRefreshScheme::planOf(data::ItemId item) const {
  DTNCACHE_CHECK(item < plans_.size());
  return plans_[item];
}

}  // namespace dtncache::core
