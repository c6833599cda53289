#pragma once

/// \file peerd.hpp
/// The peer daemon core: the paper's cache-freshness scheme driven by
/// wall-clock timers and real TCP sessions instead of a simulated contact
/// trace. One Peerd is one node.
///
/// The daemon reuses the simulation's machinery wholesale — that is the
/// point of the layering:
///   - `cache::ContactProtocol` decides what a contact pushes (shared with
///     `cache::CooperativeCache`, so sim and live make identical calls);
///   - `trace::ContactRateEstimator` learns pairwise contact rates from
///     the version-vector exchanges the daemon actually performs;
///   - `core::RefreshHierarchy::build` turns those rates into per-item
///     refresh trees on the maintenance timer, exactly as the simulated
///     hierarchical scheme does per maintenance event;
///   - `obs::Tracer` / `obs::Registry` emit the same JSONL events and
///     `ctr.*` counters as a simulation run, so scripts/trace_summarize.py
///     reads a live trace unchanged (timestamps are seconds since daemon
///     start, the live analogue of sim time).
///
/// Timer cadence maps the simulation's event stream onto wall-clock:
/// version-vector exchanges with each connected peer every
/// `vvIntervalSeconds` (each is an opportunistic "contact"), source
/// version bumps every `bumpIntervalSeconds`, hierarchy rebuild + disk
/// fsync + compaction accounting every `maintenanceIntervalSeconds`.
///
/// Push policy: `kHierarchy` pushes a fresher version only to nodes this
/// daemon is responsible for in the item's refresh tree (the paper's
/// bounded responsibility sets); received pushes relay down the tree the
/// same way. `kAny` floods to every stale connected peer (baseline).
/// Hierarchy views are per-daemon (each builds from its own estimator);
/// the item's source broadcasts Reparent frames when its authoritative
/// rebuild moves an edge, and receivers overlay those edges on their local
/// view until their own next rebuild.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/slot_index.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "peer/disk_store.hpp"
#include "peer/event_loop.hpp"
#include "peer/peer_config.hpp"
#include "peer/peer_session.hpp"
#include "trace/estimator.hpp"

namespace dtncache::peer {

class Peerd : public PeerSession::Handler {
 public:
  /// `tracer`/`registry` may be null (no tracing / no counters). When
  /// `externalLoop` is given the daemon shares it (tests drive several
  /// daemons single-threaded on one loop); otherwise it owns one.
  Peerd(PeerdConfig config, obs::Tracer* tracer, obs::Registry* registry,
        EventLoop* externalLoop = nullptr);
  ~Peerd() override;
  Peerd(const Peerd&) = delete;
  Peerd& operator=(const Peerd&) = delete;

  /// Bind + listen, arm all timers, schedule dials. Returns false when the
  /// listen socket or the disk store cannot be set up.
  bool start();

  /// Run the owned event loop until stop (SIGINT/SIGTERM via
  /// EventLoop::stop + wakeup, or the runSeconds timer).
  void run();

  /// Graceful shutdown: Bye to every peer, stop the loop.
  void shutdown();

  EventLoop& loop() { return *loop_; }

  /// Actual listening port (after bind; differs from config when 0 was
  /// requested to let the kernel pick).
  std::uint16_t boundPort() const { return boundPort_; }

  const PeerdConfig& config() const { return config_; }
  const PeerStore& store() const { return *store_; }
  std::optional<data::Version> heldVersion(data::ItemId item) const {
    return store_->heldVersion(item);
  }
  std::size_t establishedCount() const;

  /// The node that produces versions of `item` (its root in the tree).
  NodeId sourceOf(data::ItemId item) const {
    return static_cast<NodeId>(item % config_.nodeCount);
  }

  // -- PeerSession::Handler ---------------------------------------------------
  void onEstablished(PeerSession& session) override;
  void onFrame(PeerSession& session, const FrameBody& frame) override;
  void onClosed(PeerSession& session, const char* reason, bool wasReject) override;

 private:
  /// One live session plus what we know the peer holds (updated from its
  /// version vectors and from pushes in either direction — the live
  /// analogue of the handshake's version-metadata exchange).
  struct SessionState {
    std::unique_ptr<PeerSession> session;
    std::vector<data::Version> known;     ///< itemCount entries; 0 = none known
    std::size_t dialIndex = kNoDial;      ///< owning dial slot, inbound otherwise
    /// Closed but not yet swept out of sessions_. Closes can happen while
    /// sessions_ is under iteration (an eager flush inside sendFrame hits a
    /// dead socket), so removal is deferred to a drain timer instead of
    /// erasing in place.
    bool dead = false;
    /// This session won a duplicate-session race against an outbound dial;
    /// park that dial (no redial churn) and revive it when this session —
    /// the canonical one to the peer — drops.
    std::size_t resumeDial = kNoDial;
    /// Set when this session lost a duplicate race and its dial was parked
    /// on the winner: the close handler must not schedule a redial.
    bool parked = false;
  };
  static constexpr std::size_t kNoDial = static_cast<std::size_t>(-1);

  /// One configured outbound peer and its reconnect backoff.
  struct Dial {
    PeerAddr addr;
    PeerSession* session = nullptr;  ///< live attempt/connection, if any
    std::uint32_t failures = 0;      ///< consecutive, resets on establish
    EventLoop::TimerId retryTimer = 0;
  };

  bool openListenSocket();
  /// A fresh, unconnected session with nothing known of its peer.
  std::unique_ptr<SessionState> makeSessionState();
  void acceptReady();
  void dialPeer(std::size_t dialIndex);
  void scheduleRedial(std::size_t dialIndex);

  SessionState* stateOf(PeerSession& session);
  void armDrain();
  void resumeDialSoon(std::size_t dialIndex);

  void sendVersionVector(SessionState& state);
  void sendPush(SessionState& state, data::ItemId item, data::Version version);
  /// Push `version` of `item` to `state`'s peer if this daemon may push it
  /// there and the peer is not known to hold it already.
  void offerPush(SessionState& state, data::ItemId item, data::Version version);
  /// offerPush on every established session but `except`, in sessions_
  /// order.
  void offerPushToAll(data::ItemId item, data::Version version,
                      const SessionState* except = nullptr);
  /// May this daemon push `item` to `peer` under the configured policy?
  bool mayPushTo(data::ItemId item, NodeId peer) const;
  NodeId parentFor(data::ItemId item, NodeId node) const;
  std::vector<std::uint8_t> makePayload(data::ItemId item, data::Version version) const;

  void handleVersionVector(SessionState& state, const VersionVector& vv);
  void handlePush(SessionState& state, const RefreshPush& push);
  void handleQuery(SessionState& state, const Query& query);
  void handleReply(SessionState& state, const Reply& reply);
  void handleReparent(SessionState& state, const Reparent& reparent);

  void vvTick();
  void bumpTick();
  void maintenanceTick();
  void queryTick();
  void rebuildHierarchies();

  PeerdConfig config_;
  obs::Tracer* tracer_;
  obs::Registry* registry_;
  std::unique_ptr<EventLoop> ownedLoop_;
  EventLoop* loop_;

  std::unique_ptr<PeerStore> store_;
  trace::ContactRateEstimator estimator_;
  std::vector<core::RefreshHierarchy> hierarchies_;  ///< per item; empty pre-build
  /// Reparent overlays from the item's source: packed (item, child) →
  /// parent, consulted before the local tree until the next local rebuild.
  core::SlotIndex overrideIndex_;
  std::vector<NodeId> overrideParents_;

  int listenFd_ = -1;
  std::uint16_t boundPort_ = 0;
  std::vector<Dial> dials_;
  /// May hold dead-marked entries between a close and the next drain; every
  /// iteration must skip on `dead`/`established()` rather than assume all
  /// entries are live.
  std::vector<std::unique_ptr<SessionState>> sessions_;
  bool drainArmed_ = false;
  EventLoop::TimerId drainTimer_ = 0;

  // Self-rescheduling tick timers, tracked so the destructor can cancel
  // them: a Peerd on a shared loop must not leave `this`-capturing timers
  // behind when it is destroyed (tests tear daemons down mid-run).
  EventLoop::TimerId vvTimer_ = 0;
  EventLoop::TimerId bumpTimer_ = 0;
  EventLoop::TimerId maintenanceTimer_ = 0;
  EventLoop::TimerId queryTimer_ = 0;
  EventLoop::TimerId stopTimer_ = 0;

  std::vector<data::Version> sourceVersions_;  ///< per item; we bump our own
  std::uint64_t nextQueryId_ = 1;
  std::uint64_t queryTicks_ = 0;
  std::uint64_t lastCompactions_ = 0;
  bool stopping_ = false;

  obs::Counter* ctrReconnects_ = nullptr;
  obs::Counter* ctrFramesRejected_ = nullptr;
  obs::Counter* ctrCompactions_ = nullptr;
  obs::Counter* ctrPushSent_ = nullptr;
  obs::Counter* ctrInstalls_ = nullptr;
  obs::Counter* ctrSessions_ = nullptr;
};

}  // namespace dtncache::peer
