#pragma once

/// \file shard_driver.hpp
/// Fence-based sharded simulation kernel: intra-experiment parallelism with
/// a deterministic cross-shard merge.
///
/// The single-threaded kernel interleaves two streams in (time, sequence)
/// key order: queue events (timers, queries, churn flips) and trace contacts
/// (which hold pre-reserved FIFO ranks, so their keys are known without
/// scheduling anything). The sharded kernel exploits one structural fact:
/// a contact whose endpoints are both *protocol-inert* — not a source, no
/// cached items, no buffered messages, not active in the refresh scheme
/// (cache::CooperativeCache::nodeProtocolActive) — touches only its own
/// pair's estimator state and per-context observability sinks. Those
/// "boring" contacts commute with each other and can run on worker threads;
/// everything else (queue events and "fence" contacts with at least one
/// active endpoint) runs serially on the coordinator, and the inert set only
/// changes at those serial points.
///
/// Protocol, per epoch:
///   1. The coordinator scans contacts forward, classifying each against
///      the node-activity fence frozen since the last serial event —
///      evaluated at the contact's own time through the expiry watermarks
///      (cache_store/buffer), so activity may *decay* by pure expiry without
///      forcing a fence — until it finds the next serial event: min(earliest
///      queue-event key, next fence contact's key).
///   2. It hands off the boring contacts below that key. Large batches are
///      published as the epoch bound (release); workers deliver their
///      assigned boring contacts below the bound (tagging sim::tlsShard with
///      each contact's (time, seq)) and acknowledge (release). Batches too
///      small to amortize a wake-up are executed by the coordinator itself
///      ("stolen") — sinks merge by event key, not by context, so where a
///      boring contact runs never shows in the output.
///   3. What happens next depends on the serial event's scope:
///      - fence contacts and kFence queue events: the coordinator quiesces
///        every worker holding published work (acquire), then executes the
///        event on context 0;
///      - kShardLocal queue events (sim::EventScope — scheme ticks whose
///        callbacks commute with boring contacts, classified by
///        cache::RefreshScheme::timerScope): the coordinator runs them
///        immediately, concurrently with whatever the workers still hold.
///        No quiesce; small hand-offs that cannot be stolen safely are
///        simply deferred to the next hand-off.
/// Because every state a worker reads is only written at fence-scoped serial
/// points and every write lands in per-context or per-pair state merged in
/// key order, the merged run is byte-identical to the single-threaded one at
/// any shard count — the equivalence suite
/// (tests/runner/shard_equivalence_test) compares traces byte for byte at
/// shards 1/2/4/7, including timer-heavy (hierarchical oracle-rates) and
/// expired-heavy configurations.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/coop_cache.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "trace/estimator.hpp"

namespace dtncache::runner {

/// Coordination counters surfaced in ExperimentOutput (deliberately outside
/// the obs::Registry so counter snapshots stay byte-identical across shard
/// counts).
struct ShardStats {
  std::size_t shards = 0;             ///< worker count actually used
  std::size_t contactsProcessed = 0;  ///< contacts delivered by the driver
  std::size_t localContacts = 0;      ///< both endpoints on one shard
  std::size_t crossContacts = 0;      ///< endpoints on different shards
  std::size_t fenceContacts = 0;      ///< executed serially on the coordinator
  std::size_t boringContacts = 0;     ///< executed on worker threads
  std::size_t stolenContacts = 0;     ///< boring but coordinator-executed (small epochs)
  std::size_t serialEvents = 0;       ///< queue events run by the coordinator
  std::size_t localTimerEvents = 0;   ///< of those, kShardLocal (no barrier needed)
  std::size_t barrierWaits = 0;       ///< epochs where the coordinator blocked
};

struct ShardPlanConfig {
  std::size_t shards = 1;
  /// Node→shard map (size == node count); see shard_plan.hpp.
  std::vector<std::uint32_t> shardMap;
};

/// Run the experiment's event loop with `plan.shards` worker threads,
/// replacing `sim.runUntil(horizon)`. Requires network.setShardedDelivery
/// (true) before Network::start, no energy model, and a shardable scheme.
/// On return the clock sits at `horizon` and all per-context state has been
/// merged back; output is byte-identical to the single-threaded kernel.
ShardStats runSharded(sim::Simulator& sim, net::Network& network,
                      cache::CooperativeCache& coop,
                      trace::ContactRateEstimator& estimator, obs::Tracer* tracer,
                      obs::Registry& registry, sim::SimTime horizon,
                      const ShardPlanConfig& plan);

}  // namespace dtncache::runner
