#pragma once

/// \file coop_cache.hpp
/// The cooperative-caching protocol stack (the INFOCOM'11 substrate).
///
/// Responsibilities:
///   - choose the caching-node set of every item (NCL greedy-coverage
///     ordering of the network, first R non-source nodes per item);
///   - keep every node's cached copies (one CacheStore row per node) and
///     per-node store-carry-forward buffers;
///   - serve queries: local hit, or spray a query toward the item's caching
///     set, generate a reply at the first valid holder, route it back;
///   - account every transferred byte by traffic category;
///   - report all copy/query events to the MetricsCollector;
///   - delegate *freshness maintenance* to the plugged-in RefreshScheme via
///     pushVersion(), the single API through which any scheme moves new
///     versions between nodes.
///
/// One CooperativeCache instance = one simulation run.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache_store.hpp"
#include "core/dense_bitset.hpp"
#include "cache/refresh_scheme.hpp"
#include "data/item.hpp"
#include "data/source.hpp"
#include "data/workload.hpp"
#include "metrics/collector.hpp"
#include "net/buffer.hpp"
#include "net/forwarding.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "trace/estimator.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::cache {

struct CoopCacheConfig {
  /// R: caching nodes per item (the refresh hierarchy's member count).
  std::size_t cachingNodesPerItem = 8;
  /// Per-item override of R (popularity-aware allocation, experiment F13);
  /// empty = uniform. Size must equal the catalog size when set.
  std::vector<std::size_t> cachingNodesPerItemOverride;
  std::size_t cacheCapacityBytes = 64ull * 1024 * 1024;
  std::size_t bufferCapacityBytes = 16ull * 1024 * 1024;
  /// Pre-populate caches with the current version at start (the paper
  /// studies freshness *maintenance*; initial dissemination is exercised
  /// when this is false, via placement messages).
  bool warmStart = true;
  net::ForwardingConfig forwarding;
  /// Window T of the contact-capability metric C_i(T).
  sim::SimTime centralityWindow = sim::hours(24);
  /// Metrics sampling period (valid-fraction scans, time series).
  sim::SimTime sampleInterval = sim::hours(1);
};

/// Every item's caching set as CooperativeCache picks it (NCL order, first R
/// non-source nodes), without a simulation. Throws std::invalid_argument
/// when R leaves no node to be the source.
std::vector<std::vector<NodeId>> selectCachingNodes(const trace::RateMatrix& planningRates,
                                                    std::size_t nodeCount,
                                                    const data::Catalog& catalog,
                                                    const CoopCacheConfig& config);

class CooperativeCache {
 public:
  CooperativeCache(sim::Simulator& simulator, net::Network& network,
                   const data::Catalog& catalog, trace::ContactRateEstimator& estimator,
                   metrics::MetricsCollector& collector,
                   const trace::RateMatrix& planningRates, CoopCacheConfig config);

  /// Install the refresh scheme (not owned). Call before start().
  void setScheme(RefreshScheme* scheme);

  /// Wire everything to the simulator: contacts, version bumps, queries,
  /// sampling. `workload` may be null (freshness-only runs). Call once.
  void start(data::SourceProcess& sources, data::QueryWorkload* workload,
             sim::SimTime horizon);

  // ---- scheme-facing API --------------------------------------------------

  const std::vector<NodeId>& cachingNodesOf(data::ItemId item) const;
  bool isCachingNode(NodeId node, data::ItemId item) const {
    DTNCACHE_CHECK(item < cachingNodes_.size());
    return cachingBits_.test(static_cast<std::uint64_t>(item) * nodeCount_ + node);
  }
  NodeId sourceOf(data::ItemId item) const { return catalog_.spec(item).source; }

  /// Version of `item` node `n` can currently provide: the live version for
  /// the source, the cached version for a holder, nullopt otherwise. Every
  /// scheme reads it for every item at every contact, so it is inline and
  /// one indexed load into the store's hot part.
  std::optional<data::Version> heldVersion(NodeId n, data::ItemId item, sim::SimTime t) const {
    const data::VersionClock& clock = catalog_.clock(item);
    if (n == clock.spec().source) return clock.currentVersion(t);
    // An expired copy cannot answer queries and (being strictly older than
    // any valid version — constant lifetime) could never win a push, so it
    // is not a version the node "can provide". Filtering it here keeps
    // heldVersion consistent with the activity fence, which classifies
    // expired-only holders as inert. installCopy records exactly
    // clock.expiryTime(v), so `t < expiresAt` is the clock's isValid test.
    const HeldCopy& c = store_.held(n, item);
    if (t < c.expiresAt) return c.version;
    return std::nullopt;
  }

  /// Can `node` answer a query for `item` at `t`: is it the source, or does
  /// it hold a copy still valid at `t`?
  bool canAnswer(NodeId node, data::ItemId item, sim::SimTime t) const;

  /// True iff heldVersion(n, item, t) has a value for some item: `n` is a
  /// source or holds an unexpired copy. O(1) through the store's expiry
  /// watermark. Neither endpoint of a contact the sharded kernel runs on a
  /// worker thread passes it, so a scheme that checks it first reads no
  /// planning state on those contacts.
  bool providesAny(NodeId n, sim::SimTime t) const {
    return sourceNode_.test(n) || store_.hasUnexpired(n, t);
  }

  /// Move the newest version `from` holds to `to` (a caching node of the
  /// item), if it is newer than what `to` holds and the channel budget
  /// allows. Returns true when a copy was transferred and installed.
  /// `category` is kRefresh for maintenance pushes, kPlacement for initial
  /// dissemination.
  bool pushVersion(NodeId from, NodeId to, data::ItemId item, sim::SimTime t,
                   net::ContactChannel& channel, net::Traffic category);

  /// As pushVersion, but the pushed version is supplied by the caller
  /// (for schemes whose carriers hold relay copies outside any cache).
  bool pushSpecificVersion(NodeId from, NodeId to, data::ItemId item, data::Version version,
                           sim::SimTime t, net::ContactChannel& channel,
                           net::Traffic category);

  /// Drop a store-carry-forward message into a node's buffer (pull
  /// requests from the pull baseline, custom probes from examples).
  void injectMessage(NodeId at, net::Message m, sim::SimTime now);

  /// Issue a query right now (the workload listener routes through this;
  /// examples and tests may issue queries directly). The query id must be
  /// unique within the run. Queries from down nodes (per the up-predicate)
  /// are silently dropped — a powered-off device makes no requests.
  void issueQuery(const data::Query& q) {
    if (upPredicate_ && !upPredicate_(q.requester)) return;
    handleQuery(q);
  }

  /// Churn hook: nodes for which this returns false issue no queries.
  void setUpPredicate(std::function<bool(NodeId)> pred) { upPredicate_ = std::move(pred); }

  /// Attach the observability layer (neither owned; both may be null).
  /// Events: handshake_truncated, push / push_denied, install,
  /// version_bump, query / query_local_hit, reply_delivered. Counters
  /// under cache.* (see docs/observability.md).
  void setObservability(obs::Tracer* tracer, obs::Registry* registry);

  /// The run's tracer (null when tracing is off) — schemes emit their own
  /// events through this.
  obs::Tracer* tracer() const { return tracer_; }

  // ---- accessors ----------------------------------------------------------

  sim::Simulator& simulator() { return simulator_; }
  const data::Catalog& catalog() const { return catalog_; }
  trace::ContactRateEstimator& estimator() { return estimator_; }
  metrics::MetricsCollector& collector() { return collector_; }
  const CoopCacheConfig& config() const { return config_; }
  std::size_t nodeCount() const { return nodeCount_; }
  /// Every node's cached copies: row n is node n.
  const CacheStore& store() const { return store_; }
  net::MessageBuffer& bufferOf(NodeId n);
  const net::MessageBuffer& bufferOf(NodeId n) const;

  /// Fence predicate for the sharded kernel (runner/shard_driver): a
  /// contact at time `now` can touch shared protocol state only if at least
  /// one endpoint is active — sources always (they hold the live version),
  /// holders of at least one *unexpired* cached copy, nodes buffering at
  /// least one *live* message, and scheme-active nodes
  /// (RefreshScheme::contactActive). Expired-only nodes are inert: every
  /// contact-path predicate (canAnswer, heldVersion, forwardBuffered) already
  /// ignores expired content, so a node holding nothing else cannot act.
  /// Evaluated against the expiry watermarks — O(1), no mutation — so lazily
  /// purged leftovers stop forcing fences. Activity can *decay* between
  /// serial events (expiry is a pure function of time), which is safe: the
  /// predicate is monotone-narrowing in `now`, and boring-contact handlers
  /// re-evaluate everything at the contact's own time.
  bool nodeProtocolActive(NodeId n, sim::SimTime now) const {
    return sourceNode_.test(n) || store_.hasUnexpired(n, now) || buffers_[n].hasLive(now) ||
           (scheme_ != nullptr && scheme_->contactActive(n));
  }

  /// True when `n` holds cached copies or buffered messages but all of them
  /// are expired at `now` — the nodes the watermarks reclassify as inert.
  bool holdsOnlyExpiredContent(NodeId n, sim::SimTime now) const {
    return (store_.size(n) > 0 && !store_.hasUnexpired(n, now)) ||
           (!buffers_[n].empty() && !buffers_[n].hasLive(now));
  }
  /// Fraction of cached copies currently valid (unexpired); full scan.
  double validFraction(sim::SimTime t) const;

  /// Forwarding passes that walked a buffer holding a live message. A work
  /// count for tests; it reaches no result sink. Such passes only run on
  /// fence contacts, never on the sharded kernel's worker threads.
  std::uint64_t forwardPasses() const { return forwardPasses_; }

  /// Bits the reply-dedup set spans: at most (largest query id + 1) ×
  /// (largest caching set + 1); its words take at most twice that. A size
  /// check for tests; it reaches no result sink.
  std::uint64_t answeredBits() const { return answeredAt_.span(); }

 private:
  void handleContact(NodeId a, NodeId b, sim::SimTime t, sim::SimTime duration,
                     net::ContactChannel& channel);
  void handleQuery(const data::Query& q);
  void handleNewVersion(data::ItemId item, data::Version v, sim::SimTime t);
  /// Process `from`'s buffer against peer `to` (answer, deliver, spray).
  /// Reads forwarding utilities through utilities_, which handleContact
  /// opened for this contact. Returns whether the pass moved any bytes:
  /// every state change it makes follows a successful transfer.
  bool forwardBuffered(NodeId from, NodeId to, sim::SimTime t, net::ContactChannel& channel);
  void makeReply(NodeId answerer, const net::Message& query, sim::SimTime t);
  void deliverReply(const net::Message& reply, sim::SimTime t);
  /// Install a copy into a caching node's store row, reporting to metrics.
  /// The only place copies enter or leave store_.
  void installCopy(NodeId at, data::ItemId item, data::Version v, sim::SimTime t);
  /// Best estimated rate from `from` to the item's source or any of its
  /// caching nodes: the utility a query copy is sprayed by.
  double utilityToCachingSet(NodeId from, data::ItemId item, sim::SimTime t) const;
  void scheduleSampling(sim::SimTime horizon);
  void emitPlacement(sim::SimTime t);
  net::MessageId nextMessageId() { return nextMessageId_++; }
  /// Dense bit number for the reply-dedup set, keyed by (query, answer
  /// slot): only the item's source (slot 0) and its caching nodes (slot
  /// 1 + index in cachingNodesOf) can answer, since copies are installed at
  /// caching nodes only. Query ids are assigned sequentially from 1, so the
  /// set spans queries × answerSlots_ bits, whatever the node count.
  /// `answerer` must be able to answer `item` (checked).
  std::uint64_t answeredKey(data::QueryId q, NodeId answerer, data::ItemId item) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  const data::Catalog& catalog_;
  trace::ContactRateEstimator& estimator_;
  metrics::MetricsCollector& collector_;
  CoopCacheConfig config_;
  std::size_t nodeCount_;

  RefreshScheme* scheme_ = nullptr;
  CacheStore store_;
  std::vector<net::MessageBuffer> buffers_;
  std::vector<std::vector<NodeId>> cachingNodes_;  ///< per item
  core::DenseBitset cachingBits_;  ///< (item, node) membership, bit item·N + node

  core::DenseBitset sourceNode_;  ///< nodes that are the source of some item
  core::DenseBitset answeredAt_;  ///< (query, answer slot) reply-dedup, answeredKey bits
  /// Answer slots per query: the source plus the largest caching set.
  std::size_t answerSlots_ = 0;
  /// Deferred-removal scratch for forwardBuffered: reused across contacts so
  /// the steady-state contact path does not allocate.
  std::vector<net::MessageId> toRemoveScratch_;
  std::uint64_t forwardPasses_ = 0;
  /// Per-contact forwarding-utility memo (destination rates and caching-set
  /// utilities keyed by item). Opened only for contacts where an endpoint
  /// buffers a live message, so the sharded kernel's worker threads — which
  /// run only contacts whose endpoints buffer nothing live — never write it.
  net::ContactUtilities utilities_;
  /// Per-direction handshake cost (header + version vector), fixed by the
  /// catalog size; precomputed so handleContact does no arithmetic setup.
  std::uint64_t handshakeHalf_ = 0;
  std::function<bool(NodeId)> upPredicate_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* ctrHandshakeTruncated_ = nullptr;
  obs::Counter* ctrPushDelivered_ = nullptr;
  obs::Counter* ctrPushNoop_ = nullptr;
  obs::Counter* ctrPushDenied_ = nullptr;
  obs::Counter* ctrInstallInserted_ = nullptr;
  obs::Counter* ctrInstallUpgraded_ = nullptr;
  obs::Counter* ctrInstallEvicted_ = nullptr;
  obs::Counter* ctrQueryLocalHit_ = nullptr;
  obs::Counter* ctrQuerySprayed_ = nullptr;
  obs::Counter* ctrReplyDelivered_ = nullptr;
  /// Fence-density classification, bumped per contact inside handleContact
  /// (identically in both kernels — lost/suppressed contacts reach neither).
  obs::Counter* ctrFenceContacts_ = nullptr;
  obs::Counter* ctrBoringContacts_ = nullptr;
  obs::Counter* ctrFenceFromExpiredOnly_ = nullptr;
  net::MessageId nextMessageId_ = 1;
  bool started_ = false;
};

}  // namespace dtncache::cache
