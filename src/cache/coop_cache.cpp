#include "cache/coop_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cache/centrality.hpp"
#include "cache/contact_protocol.hpp"
#include "sim/assert.hpp"

namespace dtncache::cache {

namespace {

/// Control-plane accounting: per-item version-vector entry exchanged in
/// each contact handshake.
constexpr std::uint32_t kVersionVectorBytesPerItem = 16;

}  // namespace

std::vector<std::vector<NodeId>> selectCachingNodes(const trace::RateMatrix& planningRates,
                                                    std::size_t nodeCount,
                                                    const data::Catalog& catalog,
                                                    const CoopCacheConfig& config) {
  std::vector<std::size_t> sizes = config.cachingNodesPerItemOverride;
  if (sizes.empty()) sizes.assign(catalog.size(), config.cachingNodesPerItem);
  DTNCACHE_CHECK_MSG(sizes.size() == catalog.size(),
                     "per-item caching-node override must cover every item");
  std::size_t maxSetSize = 0;
  for (const std::size_t size : sizes) maxSetSize = std::max(maxSetSize, size);
  DTNCACHE_CHECK(maxSetSize >= 1);
  // The node count comes from the trace, which may be outside input.
  if (maxSetSize >= nodeCount)
    throw std::invalid_argument("need at least one non-caching node as the source (" +
                                std::to_string(maxSetSize) + " caching nodes per item, " +
                                std::to_string(nodeCount) + " nodes)");

  // Central ordering once; +1 head-room in case a source must be skipped.
  const std::vector<NodeId> centralOrder = selectNcls(
      planningRates, config.centralityWindow, std::min(nodeCount, maxSetSize + 1));

  std::vector<std::vector<NodeId>> sets(catalog.size());
  for (data::ItemId item = 0; item < catalog.size(); ++item) {
    const NodeId source = catalog.spec(item).source;
    auto& set = sets[item];
    for (NodeId n : centralOrder) {
      if (n == source) continue;
      set.push_back(n);
      if (set.size() == sizes[item]) break;
    }
    DTNCACHE_CHECK(set.size() == sizes[item]);
  }
  return sets;
}

CooperativeCache::CooperativeCache(sim::Simulator& simulator, net::Network& network,
                                   const data::Catalog& catalog,
                                   trace::ContactRateEstimator& estimator,
                                   metrics::MetricsCollector& collector,
                                   const trace::RateMatrix& planningRates,
                                   CoopCacheConfig config)
    : simulator_(simulator),
      network_(network),
      catalog_(catalog),
      estimator_(estimator),
      collector_(collector),
      config_(config),
      nodeCount_(network.nodeCount()),
      store_(nodeCount_, catalog.size(), config_.cacheCapacityBytes) {
  DTNCACHE_CHECK(nodeCount_ >= 2);  // selectCachingNodes checks the catalog

  cachingNodes_ = selectCachingNodes(planningRates, nodeCount_, catalog_, config_);
  cachingBits_ = core::DenseBitset(catalog_.size() * nodeCount_);
  for (data::ItemId item = 0; item < catalog_.size(); ++item) {
    answerSlots_ = std::max(answerSlots_, cachingNodes_[item].size() + 1);
    for (NodeId n : cachingNodes_[item])
      cachingBits_.set(static_cast<std::uint64_t>(item) * nodeCount_ + n);
  }
  buffers_.reserve(nodeCount_);
  for (std::size_t i = 0; i < nodeCount_; ++i) buffers_.emplace_back(config_.bufferCapacityBytes);
  utilities_ = net::ContactUtilities(nodeCount_, catalog_.size());

  handshakeHalf_ = ContactProtocol::handshakeBytes(catalog_.size(), kVersionVectorBytesPerItem);

  sourceNode_ = core::DenseBitset(nodeCount_);
  for (data::ItemId item = 0; item < catalog_.size(); ++item)
    sourceNode_.set(catalog_.spec(item).source);
}

void CooperativeCache::setScheme(RefreshScheme* scheme) {
  DTNCACHE_CHECK(!started_);
  scheme_ = scheme;
}

void CooperativeCache::setObservability(obs::Tracer* tracer, obs::Registry* registry) {
  tracer_ = tracer;
  if (registry == nullptr) {
    ctrHandshakeTruncated_ = ctrPushDelivered_ = ctrPushNoop_ = ctrPushDenied_ =
        ctrInstallInserted_ = ctrInstallUpgraded_ = ctrInstallEvicted_ =
            ctrQueryLocalHit_ = ctrQuerySprayed_ = ctrReplyDelivered_ =
                ctrFenceContacts_ = ctrBoringContacts_ = ctrFenceFromExpiredOnly_ = nullptr;
    return;
  }
  ctrHandshakeTruncated_ = &registry->counter("cache.handshake.truncated");
  ctrPushDelivered_ = &registry->counter("cache.push.delivered");
  ctrPushNoop_ = &registry->counter("cache.push.noop");
  ctrPushDenied_ = &registry->counter("cache.push.denied");
  ctrInstallInserted_ = &registry->counter("cache.install.inserted");
  ctrInstallUpgraded_ = &registry->counter("cache.install.upgraded");
  ctrInstallEvicted_ = &registry->counter("cache.install.evicted");
  ctrQueryLocalHit_ = &registry->counter("cache.query.local_hit");
  ctrQuerySprayed_ = &registry->counter("cache.query.sprayed");
  ctrReplyDelivered_ = &registry->counter("cache.reply.delivered");
  ctrFenceContacts_ = &registry->counter("shard.fence_contacts");
  ctrBoringContacts_ = &registry->counter("shard.boring_contacts");
  ctrFenceFromExpiredOnly_ = &registry->counter("shard.fence_from_expired_only");
}

void CooperativeCache::start(data::SourceProcess& sources, data::QueryWorkload* workload,
                             sim::SimTime horizon) {
  DTNCACHE_CHECK_MSG(!started_, "CooperativeCache::start called twice");
  DTNCACHE_CHECK_MSG(scheme_ != nullptr, "no refresh scheme installed");
  started_ = true;

  const sim::SimTime now = simulator_.now();
  if (config_.warmStart) {
    for (data::ItemId item = 0; item < catalog_.size(); ++item) {
      const data::Version v = catalog_.clock(item).currentVersion(now);
      for (NodeId n : cachingNodes_[item]) installCopy(n, item, v, now);
    }
  } else {
    emitPlacement(now);
  }

  sources.addListener([this](data::ItemId item, data::Version v, sim::SimTime t) {
    handleNewVersion(item, v, t);
  });
  if (workload != nullptr) {
    workload->addListener([this](const data::Query& q) { issueQuery(q); });
  }
  network_.start([this](NodeId a, NodeId b, sim::SimTime t, sim::SimTime duration,
                        net::ContactChannel& channel) {
    handleContact(a, b, t, duration, channel);
  });
  scheduleSampling(horizon);
  scheme_->onStart(*this);
}

const std::vector<NodeId>& CooperativeCache::cachingNodesOf(data::ItemId item) const {
  DTNCACHE_CHECK(item < cachingNodes_.size());
  return cachingNodes_[item];
}

bool CooperativeCache::pushVersion(NodeId from, NodeId to, data::ItemId item, sim::SimTime t,
                                   net::ContactChannel& channel, net::Traffic category) {
  const auto have = heldVersion(from, item, t);
  if (!have) return false;
  return pushSpecificVersion(from, to, item, *have, t, channel, category);
}

bool CooperativeCache::pushSpecificVersion(NodeId from, NodeId to, data::ItemId item,
                                           data::Version version, sim::SimTime t,
                                           net::ContactChannel& channel,
                                           net::Traffic category) {
  DTNCACHE_CHECK_MSG(version <= catalog_.clock(item).currentVersion(t),
                     "scheme pushed a version from the future");
  // Expired content is dead weight (it can answer nothing downstream);
  // refusing it here also keeps this path consistent with heldVersion's
  // filter, so a receiver's own expired copy never blocks a valid push.
  if (!catalog_.clock(item).isValid(version, t)) return false;
  switch (ContactProtocol::decidePush(heldVersion(to, item, t), version,
                                      isCachingNode(to, item))) {
    case PushVerdict::kNotCachingNode:
      return false;
    case PushVerdict::kReceiverCurrent:  // handshake told us: no-op
      if (ctrPushNoop_ != nullptr) ctrPushNoop_->add();
      return false;
    case PushVerdict::kSend:
      break;
  }
  const std::uint32_t bytes = ContactProtocol::pushWireBytes(catalog_.spec(item).sizeBytes);
  if (!channel.transfer(category, bytes, from)) {
    if (ctrPushDenied_ != nullptr) ctrPushDenied_->add();
    DTNCACHE_EVENT(tracer_, obs::EventKind::kPushDenied, t, {"from", from}, {"to", to},
                   {"item", item}, {"version", version}, {"bytes", bytes});
    return false;
  }
  if (ctrPushDelivered_ != nullptr) ctrPushDelivered_->add();
  DTNCACHE_EVENT(tracer_, obs::EventKind::kPush, t, {"from", from}, {"to", to},
                 {"item", item}, {"version", version},
                 {"cat", net::trafficName(category)});
  installCopy(to, item, version, t);
  return true;
}

void CooperativeCache::injectMessage(NodeId at, net::Message m, sim::SimTime now) {
  DTNCACHE_CHECK(at < nodeCount_);
  if (m.id == 0) m.id = nextMessageId();
  buffers_[at].add(m, now);
}

net::MessageBuffer& CooperativeCache::bufferOf(NodeId n) {
  DTNCACHE_CHECK(n < nodeCount_);
  return buffers_[n];
}

const net::MessageBuffer& CooperativeCache::bufferOf(NodeId n) const {
  DTNCACHE_CHECK(n < nodeCount_);
  return buffers_[n];
}

double CooperativeCache::validFraction(sim::SimTime t) const {
  std::size_t total = 0;
  std::size_t valid = 0;
  for (NodeId n = 0; n < nodeCount_; ++n) {
    store_.forEachEntry(n, [&](const CacheEntry& e) {
      ++total;
      if (catalog_.clock(e.item).isValid(e.version, t)) ++valid;
    });
  }
  return sim::ratio(valid, total);
}

// ---- internals --------------------------------------------------------------

void CooperativeCache::installCopy(NodeId at, data::ItemId item, data::Version v,
                                   sim::SimTime t) {
  const sim::SimTime expiresAt = catalog_.clock(item).expiryTime(v);
  const auto result = store_.insert(at, item, v, catalog_.spec(item).sizeBytes, t, expiresAt);
  // The new or upgraded copy first, then every victim (an upgrade that
  // outgrows the cache may evict the item itself).
  switch (result.kind) {
    case InsertResult::Kind::kInserted:
      collector_.copyInstalled(item, v, t);
      if (ctrInstallInserted_ != nullptr) ctrInstallInserted_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kInstall, t, {"at", at}, {"item", item},
                     {"version", v}, {"how", "insert"});
      break;
    case InsertResult::Kind::kUpgraded:
      collector_.copyUpgraded(item, result.previousVersion, v, t);
      if (ctrInstallUpgraded_ != nullptr) ctrInstallUpgraded_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kInstall, t, {"at", at}, {"item", item},
                     {"version", v}, {"how", "upgrade"});
      break;
    case InsertResult::Kind::kAlreadyCurrent:
    case InsertResult::Kind::kRejected:
      break;
  }
  for (const CacheEntry& victim : result.evicted) {
    collector_.copyEvicted(victim.item, victim.version, t);
    if (ctrInstallEvicted_ != nullptr) ctrInstallEvicted_->add();
  }
}

void CooperativeCache::handleNewVersion(data::ItemId item, data::Version v, sim::SimTime t) {
  collector_.versionBumped(item, t);
  DTNCACHE_EVENT(tracer_, obs::EventKind::kVersionBump, t, {"item", item}, {"version", v});
}

void CooperativeCache::handleQuery(const data::Query& q) {
  collector_.queryIssued(q);
  const sim::SimTime t = q.issueTime;
  const auto& clock = catalog_.clock(q.item);
  DTNCACHE_EVENT(tracer_, obs::EventKind::kQuery, t, {"node", q.requester},
                 {"item", q.item}, {"query", q.id});

  // Local answer: own source, or a valid cached copy.
  if (q.requester == sourceOf(q.item)) {
    collector_.queryAnswered(q.id, t, true, true, true);
    if (ctrQueryLocalHit_ != nullptr) ctrQueryLocalHit_->add();
    DTNCACHE_EVENT(tracer_, obs::EventKind::kQueryLocalHit, t, {"node", q.requester},
                   {"item", q.item}, {"query", q.id}, {"fresh", true});
    return;
  }
  // The hot part's expiresAt is the clock's expiryTime, so this is its
  // isValid test (and fails when nothing is held).
  if (const HeldCopy& held = store_.held(q.requester, q.item); t < held.expiresAt) {
    store_.recordAccess(q.requester, q.item);
    const bool fresh = clock.isFresh(held.version, t);
    collector_.queryAnswered(q.id, t, fresh, true, true);
    if (ctrQueryLocalHit_ != nullptr) ctrQueryLocalHit_->add();
    DTNCACHE_EVENT(tracer_, obs::EventKind::kQueryLocalHit, t, {"node", q.requester},
                   {"item", q.item}, {"query", q.id}, {"fresh", fresh});
    return;
  }
  if (ctrQuerySprayed_ != nullptr) ctrQuerySprayed_->add();

  net::Message m;
  m.id = nextMessageId();
  m.kind = net::MessageKind::kQuery;
  m.item = q.item;
  m.origin = q.requester;
  m.requester = q.requester;
  m.queryId = q.id;
  m.createdAt = t;
  m.deadline = q.deadline;
  m.copiesLeft = config_.forwarding.initialCopies;
  buffers_[q.requester].add(m, t);
}

void CooperativeCache::handleContact(NodeId a, NodeId b, sim::SimTime t,
                                     sim::SimTime duration, net::ContactChannel& channel) {
  (void)duration;
  estimator_.recordContact(a, b, t);

  // Fence-density accounting, computed here — not in the sharded driver — so
  // both kernels count the identical contact population (lost/suppressed
  // contacts reach neither) and the ctr.* columns stay byte-identical across
  // shard counts. On worker threads this reads only watermarks and bitsets
  // frozen since the last serial event at key < this contact's key, which is
  // exactly the state the classification is defined against.
  if (ctrFenceContacts_ != nullptr) {
    if (nodeProtocolActive(a, t) || nodeProtocolActive(b, t)) {
      ctrFenceContacts_->add();
    } else {
      ctrBoringContacts_->add();
      // Boring *because* the watermarks see through expired-only content —
      // the contacts the fence no longer serializes.
      if (holdsOnlyExpiredContent(a, t) || holdsOnlyExpiredContent(b, t))
        ctrFenceFromExpiredOnly_->add();
    }
  }

  // Metadata handshake: both sides exchange version vectors (and piggyback
  // rate gossip). Accounted per direction (cost precomputed at construction
  // — it depends only on the catalog size), and must fit before anything
  // else moves.
  if (!channel.transfer(net::Traffic::kControl, handshakeHalf_, a) ||
      !channel.transfer(net::Traffic::kControl, handshakeHalf_, b)) {
    if (ctrHandshakeTruncated_ != nullptr) ctrHandshakeTruncated_->add();
    DTNCACHE_EVENT(tracer_, obs::EventKind::kHandshakeTruncated, t, {"a", a}, {"b", b},
                   {"need", handshakeHalf_});
    return;
  }

  // Freshness maintenance gets priority on the contact's bytes: stale data
  // serves nobody, and the paper's schemes are all push-on-contact.
  scheme_->onContact(*this, a, b, t, channel);

  // Every forwarding decision below reads the estimator as recorded at this
  // contact's start, so both rounds share one utility memo. Forwarding only
  // runs from a buffer with a live message, and only such a buffer can hand
  // messages on, so the memo opens exactly when a round can read it. That
  // never happens on the sharded kernel's worker threads: a node buffering
  // a live message is protocol-active, so its contacts are fences.
  if (buffers_[a].hasLive(t) || buffers_[b].hasLive(t)) utilities_.open(estimator_, a, b, t);

  // Two rounds so a reply (or pull response) generated while processing one
  // side's buffer is handed over before the contact ends — contacts last
  // minutes, easily enough for a request/response round trip. A pass
  // changes state only after a transfer moves bytes (its purgeExpired does
  // nothing when repeated at the same t), so a pass whose two predecessors
  // moved nothing would read what its round-one twin read and move nothing
  // again: round two runs a pass only when one of those two moved bytes.
  const bool movedAB = forwardBuffered(a, b, t, channel);
  const bool movedBA = forwardBuffered(b, a, t, channel);
  const bool movedAB2 = (movedAB || movedBA) && forwardBuffered(a, b, t, channel);
  if (movedBA || movedAB2) forwardBuffered(b, a, t, channel);
}

bool CooperativeCache::canAnswer(NodeId node, data::ItemId item, sim::SimTime t) const {
  // The hot part's expiresAt is the clock's expiryTime, so this is its
  // isValid test.
  return node == sourceOf(item) || t < store_.held(node, item).expiresAt;
}

std::uint64_t CooperativeCache::answeredKey(data::QueryId q, NodeId answerer,
                                            data::ItemId item) const {
  std::uint64_t slot = 0;
  if (answerer != sourceOf(item)) {
    const std::vector<NodeId>& set = cachingNodes_[item];
    slot = static_cast<std::uint64_t>(std::find(set.begin(), set.end(), answerer) - set.begin());
    DTNCACHE_CHECK_MSG(slot < set.size(), "answerer " << answerer << " of item " << item
                                                      << " is neither source nor caching node");
    ++slot;
  }
  return q * static_cast<std::uint64_t>(answerSlots_) + slot;
}

void CooperativeCache::makeReply(NodeId answerer, const net::Message& query, sim::SimTime t) {
  const auto held = heldVersion(answerer, query.item, t);
  DTNCACHE_CHECK(held.has_value());
  if (answerer != sourceOf(query.item)) store_.recordAccess(answerer, query.item);

  net::Message r;
  r.id = nextMessageId();
  r.kind = net::MessageKind::kReply;
  r.item = query.item;
  r.version = *held;
  r.dst = query.requester;
  r.origin = answerer;
  r.requester = query.requester;
  r.queryId = query.queryId;
  r.createdAt = t;
  r.deadline = query.deadline;
  r.copiesLeft = config_.forwarding.initialCopies;
  r.payloadBytes = catalog_.spec(query.item).sizeBytes;
  buffers_[answerer].add(r, t);
}

void CooperativeCache::deliverReply(const net::Message& reply, sim::SimTime t) {
  const auto& clock = catalog_.clock(reply.item);
  const bool fresh = clock.isFresh(reply.version, t);
  const bool valid = clock.isValid(reply.version, t);
  collector_.queryAnswered(reply.queryId, t, fresh, valid, false);
  if (ctrReplyDelivered_ != nullptr) ctrReplyDelivered_->add();
  DTNCACHE_EVENT(tracer_, obs::EventKind::kReplyDelivered, t, {"node", reply.requester},
                 {"item", reply.item}, {"version", reply.version},
                 {"query", reply.queryId}, {"fresh", fresh}, {"valid", valid},
                 {"delay", t - reply.createdAt});
  // A requester that is itself a caching node keeps the data it just got.
  if (isCachingNode(reply.requester, reply.item))
    installCopy(reply.requester, reply.item, reply.version, t);
}

double CooperativeCache::utilityToCachingSet(NodeId from, data::ItemId item,
                                             sim::SimTime t) const {
  double best = estimator_.rate(from, sourceOf(item), t);
  for (NodeId n : cachingNodesOf(item)) best = std::max(best, estimator_.rate(from, n, t));
  return best;
}

bool CooperativeCache::forwardBuffered(NodeId from, NodeId to, sim::SimTime t,
                                       net::ContactChannel& channel) {
  auto& buf = buffers_[from];
  // Nothing live: done, *without* purging. The watermark check keeps this
  // path free of any mutation — the sharded kernel runs contacts between
  // inert nodes (empty or expired-only buffers) on worker threads
  // (runner/shard_driver), and lingering expired messages are invisible to
  // every predicate below. Purge only when there is real work to walk.
  if (!buf.hasLive(t)) return false;
  ++forwardPasses_;
  buf.purgeExpired(t);
  const std::uint64_t budgetBefore = channel.remainingBytes();

  toRemoveScratch_.clear();
  auto& toRemove = toRemoveScratch_;
  // Walk by slot cursor: new messages land in the *peer's* buffer, and
  // removals are deferred, so the walk is stable during the loop.
  for (std::uint32_t slot = buf.firstSlot(); slot != net::MessageBuffer::kNil;
       slot = buf.nextSlot(slot)) {
    net::Message& m = buf.at(slot);
    switch (m.kind) {
      case net::MessageKind::kQuery: {
        // Note: even when the requester has already been answered, in-flight
        // query copies keep propagating — the carriers cannot know — and
        // purge at the deadline. The collector ignores duplicate answers.
        if (to != m.requester && canAnswer(to, m.item, t)) {
          const std::uint64_t key = answeredKey(m.queryId, to, m.item);
          if (!answeredAt_.test(key)) {
            if (!channel.transfer(net::Traffic::kQuery, m.wireBytes(), from)) break;
            answeredAt_.set(key);
            makeReply(to, m, t);
            toRemove.push_back(m.id);  // this copy's job is done
            continue;
          }
        }
        // Spray toward the item's caching set.
        const auto toCachingSet = [&](NodeId n) { return utilityToCachingSet(n, m.item, t); };
        const double mine = utilities_.utility(from, m.item, toCachingSet);
        const double theirs = utilities_.utility(to, m.item, toCachingSet);
        const bool better =
            net::improvesOn(mine, theirs, config_.forwarding.improvementFactor);
        if (better && m.copiesLeft >= 1 && m.hopCount < config_.forwarding.maxHops &&
            !buffers_[to].contains(m.id)) {
          if (!channel.transfer(net::Traffic::kQuery, m.wireBytes(), from)) break;
          const std::uint32_t share = net::sprayShare(m.copiesLeft);
          net::Message copy = m;
          copy.copiesLeft = share;
          ++copy.hopCount;
          buffers_[to].add(copy, t);
          m.copiesLeft -= share;
          if (m.copiesLeft == 0) toRemove.push_back(m.id);
        }
        break;
      }
      case net::MessageKind::kReply:
      case net::MessageKind::kDataCopy: {
        const net::Traffic cat =
            m.kind == net::MessageKind::kReply ? net::Traffic::kReply : m.category;
        if (to == m.dst) {
          if (!channel.transfer(cat, m.wireBytes(), from)) break;
          if (m.kind == net::MessageKind::kReply) {
            deliverReply(m, t);
          } else {
            installCopy(m.dst, m.item, m.version, t);
          }
          toRemove.push_back(m.id);
          continue;
        }
        if (utilities_.betterCarrier(from, to, m.dst, config_.forwarding.improvementFactor) &&
            m.hopCount < config_.forwarding.maxHops && !buffers_[to].contains(m.id)) {
          if (!channel.transfer(cat, m.wireBytes(), from)) break;
          const std::uint32_t share = net::sprayShare(m.copiesLeft);
          net::Message copy = m;
          copy.copiesLeft = share;
          ++copy.hopCount;
          buffers_[to].add(copy, t);
          m.copiesLeft -= share;
          if (m.copiesLeft == 0) toRemove.push_back(m.id);
        }
        break;
      }
      case net::MessageKind::kPull: {
        if (to == m.dst) {  // reached the source: answer with the live version
          if (!channel.transfer(net::Traffic::kPull, m.wireBytes(), from)) break;
          net::Message r;
          r.id = nextMessageId();
          r.kind = net::MessageKind::kDataCopy;
          r.item = m.item;
          r.version = catalog_.clock(m.item).currentVersion(t);
          r.dst = m.origin;
          r.origin = to;
          r.createdAt = t;
          r.deadline = m.deadline;
          r.copiesLeft = config_.forwarding.initialCopies;
          r.payloadBytes = catalog_.spec(m.item).sizeBytes;
          r.category = net::Traffic::kRefresh;  // pull responses are refresh traffic
          buffers_[to].add(r, t);
          toRemove.push_back(m.id);
          continue;
        }
        if (utilities_.betterCarrier(from, to, m.dst, config_.forwarding.improvementFactor) &&
            m.hopCount < config_.forwarding.maxHops && !buffers_[to].contains(m.id)) {
          if (!channel.transfer(net::Traffic::kPull, m.wireBytes(), from)) break;
          const std::uint32_t share = net::sprayShare(m.copiesLeft);
          net::Message copy = m;
          copy.copiesLeft = share;
          ++copy.hopCount;
          buffers_[to].add(copy, t);
          m.copiesLeft -= share;
          if (m.copiesLeft == 0) toRemove.push_back(m.id);
        }
        break;
      }
    }
  }

  for (net::MessageId id : toRemove) buf.removeById(id);
  return channel.remainingBytes() != budgetBefore;
}

void CooperativeCache::emitPlacement(sim::SimTime t) {
  for (data::ItemId item = 0; item < catalog_.size(); ++item) {
    const NodeId source = sourceOf(item);
    const data::Version v = catalog_.clock(item).currentVersion(t);
    for (NodeId target : cachingNodes_[item]) {
      net::Message m;
      m.id = nextMessageId();
      m.kind = net::MessageKind::kDataCopy;
      m.item = item;
      m.version = v;
      m.dst = target;
      m.origin = source;
      m.createdAt = t;
      m.copiesLeft = config_.forwarding.initialCopies;
      m.payloadBytes = catalog_.spec(item).sizeBytes;
      buffers_[source].add(m, t);
    }
  }
}

void CooperativeCache::scheduleSampling(sim::SimTime horizon) {
  DTNCACHE_CHECK(config_.sampleInterval > 0.0);
  const sim::SimTime start = simulator_.now();
  for (sim::SimTime at = start; at <= horizon; at += config_.sampleInterval) {
    // Shard-local: sampling reads stores (which only serial events mutate)
    // and writes the collector (coordinator-owned) — it commutes with
    // worker-executed boring contacts, so the sharded driver runs it without
    // a barrier.
    simulator_.scheduleAt(
        at, [this](sim::SimTime t) { collector_.samplePoint(t, validFraction(t)); },
        sim::EventScope::kShardLocal);
  }
}

}  // namespace dtncache::cache
