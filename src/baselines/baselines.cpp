#include "baselines/baselines.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace dtncache::baselines {

namespace {

/// A Pull holder suspects staleness once its copy's age exceeds this
/// fraction of the item's refresh period.
constexpr double kAgeTriggerFraction = 1.0;
/// Per-item bytes of Invalidation's gossiped version vector (rides every
/// contact).
constexpr std::uint32_t kGossipBytesPerItem = 8;

}  // namespace

void SourceDirectScheme::onContact(cache::CooperativeCache& cache, NodeId a, NodeId b,
                                   sim::SimTime t, net::ContactChannel& channel) {
  const std::size_t items = cache.catalog().size();
  for (data::ItemId item = 0; item < items; ++item) {
    const NodeId source = cache.sourceOf(item);
    if (a == source)
      cache.pushVersion(a, b, item, t, channel, net::Traffic::kRefresh);
    else if (b == source)
      cache.pushVersion(b, a, item, t, channel, net::Traffic::kRefresh);
  }
}

void EpidemicScheme::onContact(cache::CooperativeCache& cache, NodeId a, NodeId b,
                               sim::SimTime t, net::ContactChannel& channel) {
  const std::size_t items = cache.catalog().size();
  for (data::ItemId item = 0; item < items; ++item) {
    const auto va = cache.heldVersion(a, item, t);
    const auto vb = cache.heldVersion(b, item, t);
    if (va && (!vb || *va > *vb))
      cache.pushVersion(a, b, item, t, channel, net::Traffic::kRefresh);
    else if (vb && (!va || *vb > *va))
      cache.pushVersion(b, a, item, t, channel, net::Traffic::kRefresh);
  }
}

void FloodingScheme::onStart(cache::CooperativeCache& cache) {
  items_ = cache.catalog().size();
  relay_.assign(cache.nodeCount() * items_, kNoRelay);
  relayCount_.assign(cache.nodeCount(), 0);
}

void FloodingScheme::onContact(cache::CooperativeCache& cache, NodeId a, NodeId b,
                               sim::SimTime t, net::ContactChannel& channel) {
  const std::size_t items = cache.catalog().size();
  auto effectiveVersion = [&](NodeId n, data::ItemId item) -> std::optional<data::Version> {
    auto held = cache.heldVersion(n, item, t);
    const data::Version relay = relay_[n * items_ + item];
    if (relay != kNoRelay && (!held || relay > *held)) return relay;
    return held;
  };
  auto push = [&](NodeId from, NodeId to, data::ItemId item, data::Version v) {
    if (cache.isCachingNode(to, item)) {
      // Installs into the cache (pushSpecificVersion accounts the bytes).
      cache.pushSpecificVersion(from, to, item, v, t, channel, net::Traffic::kRefresh);
      return;
    }
    // Non-member: keep a relay copy. Same bytes on the air.
    const std::uint32_t bytes = net::kHeaderBytes + cache.catalog().spec(item).sizeBytes;
    if (!channel.transfer(net::Traffic::kRefresh, bytes, from)) return;
    data::Version& slot = relay_[to * items_ + item];
    if (slot == kNoRelay) ++relayCount_[to];
    slot = v;
  };

  for (data::ItemId item = 0; item < items; ++item) {
    const auto va = effectiveVersion(a, item);
    const auto vb = effectiveVersion(b, item);
    if (va && (!vb || *va > *vb))
      push(a, b, item, *va);
    else if (vb && (!va || *vb > *va))
      push(b, a, item, *vb);
  }
}

std::size_t FloodingScheme::relayCopies() const {
  std::size_t n = 0;
  for (const std::uint32_t count : relayCount_) n += count;
  return n;
}

void PullScheme::onStart(cache::CooperativeCache& cache) {
  DTNCACHE_CHECK(config_.checkPeriod > 0.0);
  outstanding_.assign(cache.nodeCount() * cache.catalog().size(),
                      -std::numeric_limits<sim::SimTime>::infinity());
  cache.simulator().schedulePeriodic(
      config_.checkPeriod, [this, &cache](sim::SimTime t) { checkAges(cache, t); },
      config_.checkPeriod);
}

void PullScheme::checkAges(cache::CooperativeCache& cache, sim::SimTime t) {
  const std::size_t items = cache.catalog().size();
  for (data::ItemId item = 0; item < items; ++item) {
    const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
    const sim::SimTime trigger = kAgeTriggerFraction * tau;
    for (NodeId n : cache.cachingNodesOf(item)) {
      const cache::CacheEntry* e = cache.storeOf(n).find(item);
      if (e == nullptr || t - e->receivedAt < trigger) continue;

      sim::SimTime& outstanding = outstanding_[static_cast<std::size_t>(n) * items + item];
      if (outstanding > t) continue;  // a pull is already in flight

      net::Message m;
      m.kind = net::MessageKind::kPull;
      m.item = item;
      m.dst = cache.sourceOf(item);
      m.origin = n;
      m.createdAt = t;
      m.deadline = t + config_.pullTtl;
      m.copiesLeft = cache.config().forwarding.initialCopies;
      cache.injectMessage(n, m, t);
      outstanding = m.deadline;
      ++pullsIssued_;
    }
  }
}

void InvalidationScheme::onStart(cache::CooperativeCache& cache) {
  items_ = cache.catalog().size();
  known_.assign(cache.nodeCount() * items_, 0);
  outstanding_.assign(cache.nodeCount() * items_,
                      -std::numeric_limits<sim::SimTime>::infinity());
}

void InvalidationScheme::maybePull(cache::CooperativeCache& cache, NodeId n,
                                   data::ItemId item, sim::SimTime t) {
  const std::size_t slot = n * items_ + item;
  if (outstanding_[slot] > t) return;

  net::Message m;
  m.kind = net::MessageKind::kPull;
  m.item = item;
  m.dst = cache.sourceOf(item);
  m.origin = n;
  m.createdAt = t;
  m.deadline = t + config_.pullTtl;
  m.copiesLeft = cache.config().forwarding.initialCopies;
  cache.injectMessage(n, m, t);
  outstanding_[slot] = m.deadline;
  ++pullsIssued_;
}

void InvalidationScheme::onContact(cache::CooperativeCache& cache, NodeId a, NodeId b,
                                   sim::SimTime t, net::ContactChannel& channel) {
  const std::size_t items = cache.catalog().size();
  // Version-number gossip, both directions; tiny but accounted.
  const std::uint64_t gossipBytes =
      static_cast<std::uint64_t>(kGossipBytesPerItem) * items;
  if (!channel.transfer(net::Traffic::kControl, gossipBytes, a)) return;
  if (!channel.transfer(net::Traffic::kControl, gossipBytes, b)) return;

  for (data::ItemId item = 0; item < items; ++item) {
    // Each side's knowledge: rumors heard + what it actually holds (the
    // source always knows the live version).
    data::Version& knownA = known_[a * items_ + item];
    data::Version& knownB = known_[b * items_ + item];
    const auto heldA = cache.heldVersion(a, item, t);
    const auto heldB = cache.heldVersion(b, item, t);
    const data::Version merged =
        std::max(heldA ? std::max(knownA, *heldA) : knownA,
                 heldB ? std::max(knownB, *heldB) : knownB);
    knownA = merged;
    knownB = merged;

    // A caching node whose copy is older than the rumor pulls. Neither
    // pull touches a store, so the versions read above still hold.
    if (cache.isCachingNode(a, item) && !(heldA && *heldA >= merged))
      maybePull(cache, a, item, t);
    if (cache.isCachingNode(b, item) && !(heldB && *heldB >= merged))
      maybePull(cache, b, item, t);
  }
}

}  // namespace dtncache::baselines
