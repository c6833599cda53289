#pragma once

/// \file baselines.hpp
/// Baseline refresh schemes the paper's scheme is compared against.
///
/// - NoRefresh:    copies are never updated after placement; they go stale
///                 at the first version bump and expire at their lifetime —
///                 what plain cooperative caching (INFOCOM'11) does.
/// - SourceDirect: only the source pushes new versions, to caching nodes it
///                 meets in person. The "flat" non-hierarchical design —
///                 cheap, but a source that rarely meets a caching node
///                 leaves it permanently stale.
/// - Epidemic:     any caching node (or the source) with a newer version
///                 pushes it to any stale caching node it meets. The
///                 freshness ceiling among member-only schemes, with
///                 unbounded per-node responsibility.
/// - Flooding:     every node in the network relays new versions (non-
///                 members keep relay copies). The absolute freshness
///                 ceiling and the overhead worst case.
/// - Pull:         caching nodes detect their copy's age exceeding the
///                 refresh period and send pull requests routed to the
///                 source, which answers with a routed data copy —
///                 client-driven validation, as in classic Web caching,
///                 transplanted onto a DTN.
/// - Invalidation: version *numbers* gossip epidemically among all nodes
///                 (bytes are negligible — they ride the contact
///                 handshake); a caching node that learns a newer version
///                 exists pulls the data from the source. The classic
///                 cache-invalidation design: staleness is detected almost
///                 as fast as flooding detects it, but the heavy data
///                 still has to travel on demand.

#include <limits>
#include <vector>

#include "cache/coop_cache.hpp"
#include "cache/refresh_scheme.hpp"

namespace dtncache::baselines {

class NoRefreshScheme : public cache::RefreshScheme {
 public:
  std::string name() const override { return "NoRefresh"; }
  void onContact(cache::CooperativeCache&, NodeId, NodeId, sim::SimTime,
                 net::ContactChannel&) override {}
};

class SourceDirectScheme : public cache::RefreshScheme {
 public:
  std::string name() const override { return "SourceDirect"; }
  void onContact(cache::CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                 net::ContactChannel& channel) override;
};

class EpidemicScheme : public cache::RefreshScheme {
 public:
  std::string name() const override { return "Epidemic"; }
  void onContact(cache::CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                 net::ContactChannel& channel) override;
};

class FloodingScheme : public cache::RefreshScheme {
 public:
  std::string name() const override { return "Flooding"; }
  void onStart(cache::CooperativeCache& cache) override;
  void onContact(cache::CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                 net::ContactChannel& channel) override;

  /// A node carrying relay copies can hand them over on any contact.
  bool contactActive(NodeId n) const override {
    return n < relayCount_.size() && relayCount_[n] != 0;
  }

  /// Relay copies held outside caches (diagnostics).
  std::size_t relayCopies() const;

 private:
  static constexpr data::Version kNoRelay = std::numeric_limits<data::Version>::max();

  std::size_t items_ = 0;
  /// Newest version a non-holder carries, at node · items + item; kNoRelay
  /// where it carries none.
  std::vector<data::Version> relay_;
  std::vector<std::uint32_t> relayCount_;  ///< per node: items it carries
};

struct PullConfig {
  /// How often holders check their copies' ages.
  sim::SimTime checkPeriod = sim::hours(1);
  /// Relative validity of an issued pull (gives up after this).
  sim::SimTime pullTtl = sim::hours(12);
};

class PullScheme : public cache::RefreshScheme {
 public:
  explicit PullScheme(PullConfig config = {}) : config_(config) {}

  std::string name() const override { return "Pull"; }
  void onStart(cache::CooperativeCache& cache) override;
  void onContact(cache::CooperativeCache&, NodeId, NodeId, sim::SimTime,
                 net::ContactChannel&) override {}

  std::size_t pullsIssued() const { return pullsIssued_; }

 private:
  void checkAges(cache::CooperativeCache& cache, sim::SimTime t);

  PullConfig config_;
  /// Deadline of the node's outstanding pull for the item, at node · items +
  /// item (-inf when none), to rate-limit.
  std::vector<sim::SimTime> outstanding_;
  std::size_t pullsIssued_ = 0;
};

struct InvalidationConfig {
  /// Validity of an issued pull (re-pull allowed after it expires).
  sim::SimTime pullTtl = sim::hours(12);
};

class InvalidationScheme : public cache::RefreshScheme {
 public:
  explicit InvalidationScheme(InvalidationConfig config = {}) : config_(config) {}

  std::string name() const override { return "Invalidation"; }
  void onStart(cache::CooperativeCache& cache) override;
  void onContact(cache::CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                 net::ContactChannel& channel) override;
  /// Version vectors gossip (and merge) on every contact: no inert contacts.
  bool shardable() const override { return false; }

  std::size_t pullsIssued() const { return pullsIssued_; }
  /// Highest version node `n` has *heard of* for `item` (diagnostics).
  data::Version knownVersion(NodeId n, data::ItemId item) const {
    return known_[n * items_ + item];
  }

 private:
  /// Pull `item` for caching node `n`, which has heard of a newer version
  /// than it holds, unless a pull of its own is outstanding.
  void maybePull(cache::CooperativeCache& cache, NodeId n, data::ItemId item,
                 sim::SimTime t);

  InvalidationConfig config_;
  std::size_t items_ = 0;
  /// At node · items + item: the newest version number the node has heard
  /// of, and the deadline of its outstanding pull (-inf when none).
  std::vector<data::Version> known_;
  std::vector<sim::SimTime> outstanding_;
  std::size_t pullsIssued_ = 0;
};

}  // namespace dtncache::baselines
