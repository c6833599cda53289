#include "core/hierarchical_scheme.hpp"

#include <algorithm>

#include "core/freshness.hpp"
#include "sim/assert.hpp"

namespace dtncache::core {

namespace {

/// Relative improvement in end-to-end refresh probability required before
/// a local repair re-parents (hysteresis against estimate noise).
constexpr double kRepairImprovement = 0.10;
/// Only spend relay bandwidth on weak edges: inject relays for a target
/// only when the direct responsible edge alone delivers within τ with
/// probability below this threshold (strong edges need no help).
constexpr double kRelayWhenDirectBelow = 0.9;
/// Relay-copy TTL as a multiple of the item's refresh period (after one
/// period a newer version exists, so stale relay copies self-purge).
constexpr double kRelayTtlFactor = 1.0;

}  // namespace

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
  installPushTargets(item);
}

void HierarchicalRefreshScheme::installPushTargets(data::ItemId item) {
  const auto byItem = [](const MemberEntry& e, data::ItemId i) { return e.item < i; };
  const auto erase = [&](std::vector<MemberEntry>& rows) {
    const auto it = std::lower_bound(rows.begin(), rows.end(), item, byItem);
    if (it != rows.end() && it->item == item) rows.erase(it);
  };
  for (NodeId n : pushTargets_[item].members) {
    erase(memberItems_[n]);
    erase(targetItems_[n]);
  }
  pushTargets_[item] = buildPushTargets(hierarchies_[item], plans_[item]);
  const PushTargets& table = pushTargets_[item];
  for (std::size_t i = 0; i < table.members.size(); ++i) {
    const MemberEntry row{item, table.offsets[i], table.offsets[i + 1]};
    const auto insert = [&](std::vector<MemberEntry>& rows) {
      rows.insert(std::lower_bound(rows.begin(), rows.end(), item, byItem), row);
    };
    insert(memberItems_[table.members[i]]);
    if (row.begin < row.end) insert(targetItems_[table.members[i]]);
  }
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
        bestScore >= current * (1.0 + kRepairImprovement)) {
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
  pushTargets_.assign(items, PushTargets{});
  memberItems_.assign(cache.nodeCount(), {});
  targetItems_.assign(cache.nodeCount(), {});
  for (data::ItemId item = 0; item < items; ++item) rebuildItem(cache, item, now);

  if (config_.maintenance != MaintenanceMode::kStatic) {
    cache.simulator().schedulePeriodic(
        config_.maintenancePeriod,
        [this, &cache](sim::SimTime t) { runMaintenance(cache, t); },
        config_.maintenancePeriod, timerScope(cache::TimerKind::kMaintenance));
  }
}

void HierarchicalRefreshScheme::onContact(cache::CooperativeCache& cache, NodeId a, NodeId b,
                                          sim::SimTime t, net::ContactChannel& channel) {
  // Every push and relay below needs a version one endpoint can provide.
  // Checking that first, through the store watermarks, keeps the contacts
  // the sharded kernel runs on worker threads (neither endpoint provides
  // anything) off the push tables, which an oracle-rates maintenance tick
  // may be rebuilding at the same time.
  if (!cache.providesAny(a, t) && !cache.providesAny(b, t)) return;

  // A push needs both endpoints in the item's hierarchy: walk the items
  // both are members of, in ascending order.
  const auto pushesTo = [this](const MemberEntry& row, NodeId target) {
    for (NodeId n : targetsIn(row))
      if (n == target) return true;
    return false;
  };
  const std::vector<MemberEntry>& rowsA = memberItems_[a];
  const std::vector<MemberEntry>& rowsB = memberItems_[b];
  auto ra = rowsA.begin();
  auto rb = rowsB.begin();
  while (ra != rowsA.end() && rb != rowsB.end()) {
    if (ra->item < rb->item) {
      ++ra;
    } else if (rb->item < ra->item) {
      ++rb;
    } else {
      const data::ItemId item = ra->item;
      const auto va = cache.heldVersion(a, item, t);
      const auto vb = cache.heldVersion(b, item, t);
      if (va && (!vb || *va > *vb) && pushesTo(*ra, b))
        cache.pushVersion(a, b, item, t, channel, net::Traffic::kRefresh);
      else if (vb && (!va || *vb > *va) && pushesTo(*rb, a))
        cache.pushVersion(b, a, item, t, channel, net::Traffic::kRefresh);
      ++ra;
      ++rb;
    }
  }
  if (config_.relayAssisted) {
    injectRelays(cache, a, b, t, channel);
    injectRelays(cache, b, a, t, channel);
  }
}

void HierarchicalRefreshScheme::injectRelays(cache::CooperativeCache& cache, NodeId holder,
                                             NodeId carrier, sim::SimTime t,
                                             net::ContactChannel& channel) {
  // Energy-aware: a nearly-drained carrier is not volunteered for relay
  // duty (it would pay rx now and tx at delivery).
  if (nodeWeight_ && nodeWeight_(carrier) < config_.minRelayCarrierBattery) return;
  const auto& fwd = cache.config().forwarding;
  for (const MemberEntry& row : targetItems_[holder]) {
    const data::ItemId item = row.item;
    const auto held = cache.heldVersion(holder, item, t);
    if (!held) continue;
    const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
    for (NodeId target : targetsIn(row)) {
      if (target == carrier) continue;  // direct push already handled
      const auto targetHeld = cache.heldVersion(target, item, t);
      if (targetHeld && *targetHeld >= *held) continue;

      // Only hand to a strictly better carrier toward the target, and only
      // over a weak direct edge: strong ones need no relay help, so save the
      // bandwidth. Both tests are pure; the cheap one runs first.
      const double mine = cache.estimator().rate(holder, target, t);
      const double theirs = cache.estimator().rate(carrier, target, t);
      if (!net::improvesOn(mine, theirs, fwd.improvementFactor)) continue;
      if (trace::contactProbability(mine, tau) >= kRelayWhenDirectBelow) continue;

      std::uint32_t& used =
          relayBudgetSlot(relayBudgetKey(item, target, *held, cache.nodeCount()));
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
      m.deadline = t + kRelayTtlFactor * tau;
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

const PushTargets& HierarchicalRefreshScheme::pushTargetsOf(data::ItemId item) const {
  DTNCACHE_CHECK(item < pushTargets_.size());
  return pushTargets_[item];
}

}  // namespace dtncache::core
