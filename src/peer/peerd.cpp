#include "peer/peerd.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "cache/contact_protocol.hpp"
#include "sim/assert.hpp"

namespace dtncache::peer {

namespace {

trace::EstimatorConfig estimatorConfigFor(const PeerdConfig& config) {
  trace::EstimatorConfig e;
  e.mode = trace::EstimatorMode::kCumulative;
  e.priorRate = config.priorRate;
  return e;
}

std::uint64_t overrideKey(data::ItemId item, NodeId child) {
  return (static_cast<std::uint64_t>(item) << 32) | child;
}

}  // namespace

Peerd::Peerd(PeerdConfig config, obs::Tracer* tracer, obs::Registry* registry,
             EventLoop* externalLoop)
    : config_(std::move(config)),
      tracer_(tracer),
      registry_(registry),
      ownedLoop_(externalLoop == nullptr ? std::make_unique<EventLoop>() : nullptr),
      loop_(externalLoop == nullptr ? ownedLoop_.get() : externalLoop),
      estimator_(config_.nodeCount, estimatorConfigFor(config_), 0.0),
      sourceVersions_(config_.itemCount, 0) {
  if (registry_ != nullptr) {
    ctrReconnects_ = &registry_->counter("peer.net.reconnects");
    ctrFramesRejected_ = &registry_->counter("peer.net.frames_rejected");
    ctrCompactions_ = &registry_->counter("peer.store.compactions");
    ctrPushSent_ = &registry_->counter("peer.push.sent");
    ctrInstalls_ = &registry_->counter("peer.push.installed");
    ctrSessions_ = &registry_->counter("peer.net.sessions");
  }
}

Peerd::~Peerd() {
  loop_->cancelTimer(vvTimer_);
  loop_->cancelTimer(bumpTimer_);
  loop_->cancelTimer(maintenanceTimer_);
  loop_->cancelTimer(queryTimer_);
  loop_->cancelTimer(stopTimer_);
  loop_->cancelTimer(drainTimer_);
  for (const Dial& dial : dials_) loop_->cancelTimer(dial.retryTimer);
  sessions_.clear();
  if (listenFd_ >= 0) {
    if (loop_->hasFd(listenFd_)) loop_->removeFd(listenFd_);
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

bool Peerd::start() {
  validatePeerConfig(config_);

  store_ = std::make_unique<PeerStore>(
      config_.itemCount, static_cast<std::size_t>(config_.memoryCapacityBytes),
      DiskStore::Config{config_.storePath,
                        static_cast<std::size_t>(config_.compactThresholdBytes)});
  if (!config_.storePath.empty() && !store_->diskOk()) return false;

  // A restarted source resumes from its last persisted version instead of
  // re-issuing version 1 — the disk tier is what makes this correct.
  for (data::ItemId item = 0; item < config_.itemCount; ++item)
    if (sourceOf(item) == config_.node)
      sourceVersions_[item] = store_->heldVersion(item).value_or(0);

  if (!openListenSocket()) return false;

  const std::vector<PeerAddr> addrs = parsePeerList(config_.peers);
  dials_.reserve(addrs.size());
  for (const PeerAddr& addr : addrs) dials_.push_back(Dial{addr, nullptr, 0, 0});
  for (std::size_t i = 0; i < dials_.size(); ++i) dialPeer(i);

  rebuildHierarchies();  // prior-rate trees until real contacts accumulate

  vvTimer_ = loop_->runAfter(config_.vvIntervalSeconds, [this] { vvTick(); });
  bumpTimer_ = loop_->runAfter(config_.bumpIntervalSeconds, [this] { bumpTick(); });
  maintenanceTimer_ =
      loop_->runAfter(config_.maintenanceIntervalSeconds, [this] { maintenanceTick(); });
  if (config_.queryIntervalSeconds > 0.0)
    queryTimer_ = loop_->runAfter(config_.queryIntervalSeconds, [this] { queryTick(); });
  if (config_.runSeconds > 0.0)
    stopTimer_ = loop_->runAfter(config_.runSeconds, [this] { shutdown(); });
  return true;
}

void Peerd::run() {
  DTNCACHE_CHECK_MSG(ownedLoop_ != nullptr, "Peerd::run needs an owned loop");
  loop_->run();
}

void Peerd::shutdown() {
  if (stopping_) return;
  stopping_ = true;
  // sendFrame can close a session synchronously (dead socket on the eager
  // flush); onClosed only dead-marks the entry, so this loop stays valid.
  for (const auto& state : sessions_)
    if (state->session->established()) state->session->sendFrame(Bye{});
  loop_->stop();
}

std::size_t Peerd::establishedCount() const {
  std::size_t n = 0;
  for (const auto& state : sessions_)
    if (state->session->established()) ++n;
  return n;
}

// ---- transport wiring --------------------------------------------------------

bool Peerd::openListenSocket() {
  // Non-blocking is load-bearing: the accept loop drains until EAGAIN, and
  // a blocking listen fd would park the whole reactor inside accept().
  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listenFd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.listenPort));
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listenFd_, 64) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    boundPort_ = ntohs(bound.sin_port);

  loop_->addFd(listenFd_, kReadable, [this](std::uint32_t) { acceptReady(); });
  return true;
}

std::unique_ptr<Peerd::SessionState> Peerd::makeSessionState() {
  auto state = std::make_unique<SessionState>();
  state->session = std::make_unique<PeerSession>(
      *loop_, *this,
      PeerSession::Config{config_.node, config_.nodeCount, config_.itemCount,
                          config_.helloTimeoutSeconds, config_.idleTimeoutSeconds});
  state->known.assign(config_.itemCount, 0);
  return state;
}

void Peerd::acceptReady() {
  while (true) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the listen socket stays armed
    }
    auto state = makeSessionState();
    PeerSession* session = state->session.get();
    sessions_.push_back(std::move(state));
    session->adopt(fd);
  }
}

void Peerd::dialPeer(std::size_t dialIndex) {
  Dial& dial = dials_[dialIndex];
  if (dial.session != nullptr || stopping_) return;
  if (dial.failures > 0 && ctrReconnects_ != nullptr) ctrReconnects_->add();

  auto state = makeSessionState();
  state->dialIndex = dialIndex;
  PeerSession* session = state->session.get();
  dial.session = session;
  const PeerAddr addr = dial.addr;
  sessions_.push_back(std::move(state));
  // connectTo can fail synchronously, which re-enters onClosed — the state
  // is already registered above so the close path finds it.
  session->connectTo(addr.host, addr.port);
}

void Peerd::scheduleRedial(std::size_t dialIndex) {
  Dial& dial = dials_[dialIndex];
  loop_->cancelTimer(dial.retryTimer);
  const double exponent =
      static_cast<double>(std::min<std::uint32_t>(dial.failures - 1, 16));
  const double delay = std::min(config_.reconnectBaseSeconds * std::pow(2.0, exponent),
                                config_.reconnectMaxSeconds);
  dial.retryTimer = loop_->runAfter(delay, [this, dialIndex] {
    dials_[dialIndex].retryTimer = 0;
    dialPeer(dialIndex);
  });
}

Peerd::SessionState* Peerd::stateOf(PeerSession& session) {
  for (const auto& state : sessions_)
    if (state->session.get() == &session) return state.get();
  return nullptr;
}

void Peerd::armDrain() {
  // Closed sessions are swept on a deferred timer, never erased in place:
  // onClosed can fire while sessions_ is under iteration (any sendFrame may
  // flush into a dead socket), and an in-place erase would invalidate the
  // iterating loop. The timer context has no session callback on the stack,
  // so destroying the PeerSession there is safe.
  if (drainArmed_) return;
  drainArmed_ = true;
  drainTimer_ = loop_->runAfter(0.0, [this] {
    drainArmed_ = false;
    drainTimer_ = 0;
    sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                   [](const std::unique_ptr<SessionState>& s) {
                                     return s->dead;
                                   }),
                    sessions_.end());
  });
}

void Peerd::resumeDialSoon(std::size_t dialIndex) {
  Dial& dial = dials_[dialIndex];
  if (dial.session != nullptr || dial.retryTimer != 0) return;
  dial.failures = 0;  // the parked connection was healthy; restart fresh
  // Deferred: dialPeer pushes into sessions_, and this can be reached from
  // onClosed while sessions_ is under iteration.
  dial.retryTimer = loop_->runAfter(0.0, [this, dialIndex] {
    dials_[dialIndex].retryTimer = 0;
    dialPeer(dialIndex);
  });
}

// ---- session handler ---------------------------------------------------------

void Peerd::onEstablished(PeerSession& session) {
  const NodeId peer = session.peerNode();

  // Simultaneous open: both ends dialed each other. Keep the canonical
  // session (the one dialed by the lower-id node) so both sides drop the
  // same duplicate. A losing outbound dial is parked on the winner — were
  // it redialed, it would reconnect, lose the race again, and churn
  // forever at the backoff cap, each churned handshake feeding a phantom
  // contact into the rate estimator. The winner revives the dial when it
  // closes, so losing the canonical session still heals.
  for (const auto& state : sessions_) {
    PeerSession* other = state->session.get();
    if (other == &session || !other->established() || other->peerNode() != peer)
      continue;
    const bool newCanonical = session.outbound() == (config_.node < peer);
    PeerSession* loser = newCanonical ? other : &session;
    PeerSession* winner = newCanonical ? &session : other;
    SessionState* loserState = stateOf(*loser);
    SessionState* winnerState = stateOf(*winner);
    if (loserState != nullptr && loserState->dialIndex != kNoDial &&
        winnerState != nullptr && winnerState->resumeDial == kNoDial) {
      winnerState->resumeDial = loserState->dialIndex;
      loserState->parked = true;
    }
    loser->close("duplicate session");
    if (loser == &session) return;
    break;
  }

  if (ctrSessions_ != nullptr) ctrSessions_->add();
  const double now = loop_->now();
  estimator_.recordContact(config_.node, peer, now);
  DTNCACHE_EVENT(tracer_, obs::EventKind::kContact, now, {"a", config_.node},
                 {"b", peer});

  SessionState* state = stateOf(session);
  if (state != nullptr && state->dialIndex != kNoDial)
    dials_[state->dialIndex].failures = 0;
  if (state != nullptr) sendVersionVector(*state);
}

void Peerd::onFrame(PeerSession& session, const FrameBody& frame) {
  SessionState* state = stateOf(session);
  if (state == nullptr) return;
  if (const auto* vv = std::get_if<VersionVector>(&frame)) {
    handleVersionVector(*state, *vv);
  } else if (const auto* push = std::get_if<RefreshPush>(&frame)) {
    handlePush(*state, *push);
  } else if (const auto* query = std::get_if<Query>(&frame)) {
    handleQuery(*state, *query);
  } else if (const auto* reply = std::get_if<Reply>(&frame)) {
    handleReply(*state, *reply);
  } else if (const auto* reparent = std::get_if<Reparent>(&frame)) {
    handleReparent(*state, *reparent);
  } else if (std::holds_alternative<Bye>(frame)) {
    session.close("peer said bye");
  }
}

void Peerd::onClosed(PeerSession& session, const char* reason, bool wasReject) {
  (void)reason;
  if (wasReject && ctrFramesRejected_ != nullptr) ctrFramesRejected_->add();
  SessionState* state = stateOf(session);
  if (state == nullptr || state->dead) return;
  state->dead = true;
  armDrain();

  const std::size_t dialIndex = state->dialIndex;
  if (dialIndex != kNoDial && !stopping_) {
    dials_[dialIndex].session = nullptr;
    if (!state->parked) {
      ++dials_[dialIndex].failures;
      scheduleRedial(dialIndex);
    }
    // A parked dial stays down on purpose: the canonical session to the
    // same peer carries it in resumeDial and revives it on close.
  }
  if (state->resumeDial != kNoDial && !stopping_) resumeDialSoon(state->resumeDial);
}

// ---- the freshness protocol over live sessions -------------------------------

void Peerd::sendVersionVector(SessionState& state) {
  VersionVector vv;
  for (data::ItemId item = 0; item < config_.itemCount; ++item)
    if (const auto held = store_->heldVersion(item))
      vv.entries.push_back(VersionVectorEntry{item, *held});
  state.session->sendFrame(std::move(vv));
}

void Peerd::sendPush(SessionState& state, data::ItemId item, data::Version version) {
  RefreshPush push;
  push.item = item;
  push.version = version;
  if (const DiskStore::StoredItem* stored = store_->fetch(item, loop_->now());
      stored != nullptr && stored->version == version)
    push.payload = stored->payload;
  else
    push.payload = makePayload(item, version);
  state.known[item] = std::max(state.known[item], version);
  if (ctrPushSent_ != nullptr) ctrPushSent_->add();
  DTNCACHE_EVENT(tracer_, obs::EventKind::kPush, loop_->now(), {"from", config_.node},
                 {"to", state.session->peerNode()}, {"item", item},
                 {"version", version}, {"cat", "refresh"});
  state.session->sendFrame(std::move(push));
}

void Peerd::offerPush(SessionState& state, data::ItemId item, data::Version version) {
  if (!mayPushTo(item, state.session->peerNode())) return;
  const data::Version known = state.known[item];
  if (cache::ContactProtocol::decidePush(known == 0 ? std::nullopt : std::make_optional(known),
                                         version, true) == cache::PushVerdict::kSend)
    sendPush(state, item, version);
}

void Peerd::offerPushToAll(data::ItemId item, data::Version version,
                           const SessionState* except) {
  for (const auto& state : sessions_)
    if (state.get() != except && state->session->established())
      offerPush(*state, item, version);
}

bool Peerd::mayPushTo(data::ItemId item, NodeId peer) const {
  if (config_.pushPolicy == PushPolicy::kAny) return true;
  return parentFor(item, peer) == config_.node;
}

NodeId Peerd::parentFor(data::ItemId item, NodeId node) const {
  const std::uint32_t slot = overrideIndex_.find(overrideKey(item, node));
  if (slot != core::SlotIndex::kNoSlot) return overrideParents_[slot];
  if (item >= hierarchies_.size()) return kNoNode;
  return hierarchies_[item].parentOf(node);
}

std::vector<std::uint8_t> Peerd::makePayload(data::ItemId item,
                                             data::Version version) const {
  std::vector<std::uint8_t> payload(config_.payloadBytes);
  for (std::size_t k = 0; k < payload.size(); ++k)
    payload[k] = static_cast<std::uint8_t>(item * 131 + version * 31 + k);
  return payload;
}

void Peerd::handleVersionVector(SessionState& state, const VersionVector& vv) {
  const double now = loop_->now();
  const NodeId peer = state.session->peerNode();
  // Each periodic exchange is one observed contact opportunity — this is
  // what feeds the hierarchy's rate estimates, exactly as recorded contacts
  // feed the simulated estimator.
  estimator_.recordContact(config_.node, peer, now);

  // The vector is authoritative for what the peer holds right now.
  std::fill(state.known.begin(), state.known.end(), 0);
  for (const VersionVectorEntry& e : vv.entries)
    if (e.item < config_.itemCount)
      state.known[e.item] = std::max(state.known[e.item], e.version);

  for (data::ItemId item = 0; item < config_.itemCount; ++item)
    if (const auto ours = store_->heldVersion(item)) offerPush(state, item, *ours);
}

void Peerd::handlePush(SessionState& state, const RefreshPush& push) {
  if (push.item >= config_.itemCount) {
    state.session->close("push for out-of-catalog item");
    return;
  }
  const double now = loop_->now();
  state.known[push.item] = std::max(state.known[push.item], push.version);

  const auto before = store_->heldVersion(push.item);
  if (!store_->install(push.item, push.version, push.payload, now)) return;
  if (ctrInstalls_ != nullptr) ctrInstalls_->add();
  DTNCACHE_EVENT(tracer_, obs::EventKind::kInstall, now, {"at", config_.node},
                 {"item", push.item}, {"version", push.version},
                 {"how", before.has_value() ? "upgrade" : "insert"});

  // Relay down the refresh tree: the push that reached us is our cue to
  // refresh the nodes we are responsible for.
  offerPushToAll(push.item, push.version, &state);
}

void Peerd::handleQuery(SessionState& state, const Query& query) {
  Reply reply;
  reply.queryId = query.queryId;
  reply.item = query.item;
  if (query.item < config_.itemCount) {
    if (const auto held = store_->heldVersion(query.item)) {
      reply.version = *held;
      reply.hasCopy = true;
      store_->memory().recordAccess(PeerStore::kRow, query.item);
    }
  }
  state.session->sendFrame(reply);
}

void Peerd::handleReply(SessionState& state, const Reply& reply) {
  (void)state;
  if (!reply.hasCopy) return;
  DTNCACHE_EVENT(tracer_, obs::EventKind::kReplyDelivered, loop_->now(),
                 {"node", config_.node}, {"item", reply.item},
                 {"version", reply.version}, {"query", reply.queryId});
}

void Peerd::handleReparent(SessionState& state, const Reparent& reparent) {
  // Only the item's source broadcasts authoritative edges; ignore others.
  if (state.session->peerNode() != sourceOf(reparent.item)) return;
  if (reparent.item >= config_.itemCount || reparent.child >= config_.nodeCount ||
      reparent.newParent >= config_.nodeCount)
    return;
  const std::uint64_t key = overrideKey(reparent.item, reparent.child);
  const std::uint32_t slot = overrideIndex_.find(key);
  if (slot != core::SlotIndex::kNoSlot) {
    overrideParents_[slot] = reparent.newParent;
  } else {
    overrideIndex_.insert(key, static_cast<std::uint32_t>(overrideParents_.size()));
    overrideParents_.push_back(reparent.newParent);
  }
  DTNCACHE_EVENT(tracer_, obs::EventKind::kReparent, loop_->now(),
                 {"item", reparent.item}, {"node", reparent.child},
                 {"parent", reparent.newParent});
}

// ---- wall-clock maintenance --------------------------------------------------

void Peerd::vvTick() {
  if (stopping_) return;
  for (const auto& state : sessions_)
    if (state->session->established()) sendVersionVector(*state);
  vvTimer_ = loop_->runAfter(config_.vvIntervalSeconds, [this] { vvTick(); });
}

void Peerd::bumpTick() {
  if (stopping_) return;
  const double now = loop_->now();
  for (data::ItemId item = 0; item < config_.itemCount; ++item) {
    if (sourceOf(item) != config_.node) continue;
    if (config_.bumpLimit > 0 && sourceVersions_[item] >= config_.bumpLimit) continue;
    const data::Version version = ++sourceVersions_[item];
    store_->install(item, version, makePayload(item, version), now);
    DTNCACHE_EVENT(tracer_, obs::EventKind::kVersionBump, now, {"item", item},
                   {"version", version});
    offerPushToAll(item, version);
  }
  bumpTimer_ = loop_->runAfter(config_.bumpIntervalSeconds, [this] { bumpTick(); });
}

void Peerd::maintenanceTick() {
  if (stopping_) return;
  rebuildHierarchies();
  store_->disk().sync();
  const std::uint64_t compactions = store_->disk().compactions();
  if (ctrCompactions_ != nullptr && compactions > lastCompactions_)
    ctrCompactions_->add(compactions - lastCompactions_);
  lastCompactions_ = compactions;
  maintenanceTimer_ =
      loop_->runAfter(config_.maintenanceIntervalSeconds, [this] { maintenanceTick(); });
}

void Peerd::queryTick() {
  if (stopping_) return;
  const data::ItemId item =
      static_cast<data::ItemId>(queryTicks_++ % config_.itemCount);
  for (const auto& state : sessions_) {
    if (!state->session->established()) continue;
    Query query;
    query.queryId = nextQueryId_++;
    query.item = item;
    DTNCACHE_EVENT(tracer_, obs::EventKind::kQuery, loop_->now(),
                   {"node", config_.node}, {"item", item}, {"query", query.queryId});
    state->session->sendFrame(query);
    break;
  }
  queryTimer_ = loop_->runAfter(config_.queryIntervalSeconds, [this] { queryTick(); });
}

void Peerd::rebuildHierarchies() {
  const double now = loop_->now();
  const core::RateFn rate = [this, now](NodeId a, NodeId b) {
    return estimator_.rate(a, b, now);
  };
  const core::HierarchyConfig hconfig{config_.fanoutBound, true};

  std::size_t reparents = 0;
  std::vector<core::RefreshHierarchy> next;
  next.reserve(config_.itemCount);
  for (data::ItemId item = 0; item < config_.itemCount; ++item) {
    const NodeId root = sourceOf(item);
    std::vector<NodeId> members;
    members.reserve(config_.nodeCount - 1);
    for (NodeId n = 0; n < config_.nodeCount; ++n)
      if (n != root) members.push_back(n);
    next.push_back(core::RefreshHierarchy::build(root, members, rate,
                                                 config_.tauSeconds, hconfig));

    if (item < hierarchies_.size()) {
      for (const NodeId child : members) {
        const NodeId oldParent = hierarchies_[item].parentOf(child);
        const NodeId newParent = next[item].parentOf(child);
        if (oldParent == newParent) continue;
        ++reparents;
        DTNCACHE_EVENT(tracer_, obs::EventKind::kReparent, now, {"item", item},
                       {"node", child}, {"parent", newParent});
        if (config_.node == root)
          for (const auto& state : sessions_)
            if (state->session->established())
              state->session->sendFrame(Reparent{item, child, newParent});
      }
    }
  }
  hierarchies_ = std::move(next);
  // A fresh local build supersedes any source overlays received earlier.
  overrideIndex_ = core::SlotIndex();
  overrideParents_.clear();
  DTNCACHE_EVENT(tracer_, obs::EventKind::kMaintenance, now,
                 {"items", config_.itemCount}, {"reparented", reparents});
}

}  // namespace dtncache::peer
