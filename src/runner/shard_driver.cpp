#include "runner/shard_driver.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <thread>

#include "runner/shard_plan.hpp"
#include "sim/assert.hpp"
#include "sim/shard_context.hpp"

namespace dtncache::runner {

namespace {

/// Worker acknowledgement slot, padded so each worker's publish lands on its
/// own cache line.
struct alignas(64) AckSlot {
  std::atomic<std::size_t> v{0};
};

}  // namespace

ShardStats runSharded(sim::Simulator& sim, net::Network& network,
                      cache::CooperativeCache& coop,
                      trace::ContactRateEstimator& estimator, obs::Tracer* tracer,
                      obs::Registry& registry, sim::SimTime horizon,
                      const ShardPlanConfig& plan) {
  const auto& contacts = network.trace().contacts();
  const std::size_t first = network.firstContactIndex();
  const sim::EventQueue::Sequence seqBase = network.sequenceBase();
  // Contacts at exactly the horizon still fire (runUntil runs t <= until).
  const std::size_t end = static_cast<std::size_t>(
      std::upper_bound(contacts.begin() + static_cast<std::ptrdiff_t>(first),
                       contacts.end(), horizon,
                       [](sim::SimTime t, const trace::Contact& c) { return t < c.start; }) -
      contacts.begin());
  const std::size_t K = plan.shards;
  DTNCACHE_CHECK(K >= 1 && plan.shardMap.size() == network.nodeCount());

  ShardStats stats;
  stats.shards = K;
  stats.contactsProcessed = end - first;

  // Static contact ownership: every contact of a pair goes to one worker
  // (shard_plan.hpp), so per-pair estimator updates need no locks.
  std::vector<std::vector<std::size_t>> lists(K);
  for (std::size_t i = first; i < end; ++i) {
    const trace::Contact& c = contacts[i];
    if (plan.shardMap[c.a] == plan.shardMap[c.b])
      ++stats.localContacts;
    else
      ++stats.crossContacts;
    lists[contactShard(plan.shardMap, K, c.a, c.b)].push_back(i);
  }

  // Per-context state fans out before any worker exists and folds back after
  // they join; the worker threads themselves only ever touch their own slot.
  const std::size_t contexts = K + 1;  // context 0 is the coordinator
  registry.enterShardMode(contexts);
  if (tracer != nullptr) tracer->enterShardMode(contexts);
  estimator.enterShardMode(contacts, first, end);
  network.enterShardMode(contexts);

  // Fence contacts are executed by the coordinator; their owning worker must
  // skip them. The flag is always written before the bound that exposes the
  // index is published (release), so workers read it settled.
  std::vector<char> serialFlag(end - first, 0);

  std::atomic<std::size_t> bound{first};  // workers may run contacts < bound
  std::atomic<bool> stop{false};
  std::unique_ptr<AckSlot[]> acks(new AckSlot[K]);
  for (std::size_t w = 0; w < K; ++w) acks[w].v.store(first, std::memory_order_relaxed);
  const std::size_t sentinel = contacts.size() + 1;  // > any published bound

  auto workerFn = [&](std::size_t w) {
    sim::tlsShard.ctx = static_cast<std::uint32_t>(w + 1);
    const std::vector<std::size_t>& list = lists[w];
    std::size_t pos = 0;
    std::size_t seen = first;
    for (;;) {
      const std::size_t b = bound.load(std::memory_order_acquire);
      if (b != seen) {
        while (pos < list.size() && list[pos] < b) {
          const std::size_t i = list[pos];
          if (serialFlag[i - first] == 0) {
            sim::tlsShard.evTime = contacts[i].start;
            sim::tlsShard.evSeq = seqBase + (i - first);
            network.deliverSharded(i);
          }
          ++pos;
        }
        seen = b;
        acks[w].v.store(b, std::memory_order_release);
        acks[w].v.notify_one();
      }
      // The sentinel bound is stored after the stop flag, so observing
      // bound == seen == sentinel here implies stop is visible too.
      if (stop.load(std::memory_order_acquire) &&
          bound.load(std::memory_order_acquire) == seen)
        break;
      bound.wait(seen, std::memory_order_acquire);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(K);
  for (std::size_t w = 0; w < K; ++w) workers.emplace_back(workerFn, w);

  // Coordinator-side mirror of each worker's cursor: lets an epoch skip the
  // publish (and its futex round-trip) when no worker holds real work below
  // the bound — the common case on fence-heavy stretches.
  std::vector<std::size_t> mirror(K, 0);
  std::vector<char> needAck(K, 0);
  std::size_t published = first;
  std::size_t handed = first;  // everything below is executed or delegated

  // Below this many boring contacts per epoch the barrier round-trip costs
  // more than just running them, so the coordinator steals the batch. On
  // fence-dense workloads (an active endpoint every few contacts) this is
  // nearly every epoch; workers only see the long inert stretches that can
  // actually amortize a wake-up.
  constexpr std::size_t kStealMax = 16;
  // On a host that cannot run a worker beside the coordinator there is no
  // parallelism to buy: every published batch is a guaranteed blocking
  // quiesce at the next fence. Steal every epoch instead — the win there is
  // boring contacts bypassing the event heap, not the threads. Output is
  // placement-invariant either way (sinks merge by event key), so the
  // threshold is a pure scheduling knob; DTNCACHE_SHARD_STEAL_MAX overrides
  // it for tests that want to force the worker hand-off (0 = publish
  // everything) or the steal path (large) regardless of core count.
  std::size_t stealCap = std::thread::hardware_concurrency() >= 2
                             ? kStealMax
                             : std::numeric_limits<std::size_t>::max();
  if (const char* env = std::getenv("DTNCACHE_SHARD_STEAL_MAX");
      env != nullptr && *env != '\0') {
    stealCap = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }

  // needAck[w] set means worker w was handed real work at some published
  // bound and has not been awaited since — it may still be executing. Steals
  // are only legal while no flag is set (the stolen range must be provably
  // untouched and the flag writes unracing), and fences must quiesce every
  // flagged worker. Whether a flag is set depends only on the event/contact
  // sequence, never on thread timing, so stolen counts stay deterministic.
  auto anyOutstanding = [&]() {
    for (std::size_t w = 0; w < K; ++w)
      if (needAck[w] != 0) return true;
    return false;
  };

  // Await every flagged worker's ack of the last published bound (workers
  // ack exactly the bounds they observe, so `published` is the fixpoint).
  auto quiesce = [&]() {
    bool waited = false;
    for (std::size_t w = 0; w < K; ++w) {
      if (needAck[w] == 0) continue;
      std::size_t a = acks[w].v.load(std::memory_order_acquire);
      while (a < published) {
        waited = true;
        acks[w].v.wait(a, std::memory_order_acquire);
        a = acks[w].v.load(std::memory_order_acquire);
      }
      needAck[w] = 0;
    }
    if (waited) ++stats.barrierWaits;
  };

  // Run [from, newBound)'s unflagged contacts on the coordinator. Legal only
  // with no outstanding needAck: workers are then idle at `published` <=
  // `handed`, and the next bound publish (release) sequences the flag writes
  // before any worker resumes. Sinks merge by (time, seq) key, not by
  // context, so where a boring contact runs never shows in the output.
  auto stealRange = [&](std::size_t from, std::size_t newBound, std::size_t pending) {
    for (std::size_t i = from; i < newBound; ++i) {
      if (serialFlag[i - first] != 0) continue;
      serialFlag[i - first] = 1;
      sim::tlsShard.evTime = contacts[i].start;
      sim::tlsShard.evSeq = seqBase + (i - first);
      network.deliverSharded(i);
    }
    stats.stolenContacts += pending;
  };

  // Publish `newBound` to the workers without waiting, flagging every worker
  // that gains real work.
  auto publishRange = [&](std::size_t newBound) {
    for (std::size_t w = 0; w < K; ++w) {
      const std::vector<std::size_t>& list = lists[w];
      std::size_t& p = mirror[w];
      while (p < list.size() && list[p] < newBound) {
        if (serialFlag[list[p] - first] == 0) needAck[w] = 1;
        ++p;
      }
    }
    if (anyOutstanding() && newBound > published) {
      bound.store(newBound, std::memory_order_release);
      bound.notify_all();
      published = newBound;
    }
  };

  // Delegate all boring contacts below `newBound`, then — iff `mustComplete`
  // (a fence or kFence queue event is about to run) — wait until every one
  // of them has executed. Without `mustComplete` (a kShardLocal event) the
  // hand-off is fire-and-forget: large batches are published and left
  // running while the coordinator proceeds, and batches too small to steal
  // safely (outstanding acks) are simply deferred to a later hand-off —
  // that's what cuts barrier_waits on timer-heavy schemes.
  auto handOff = [&](std::size_t newBound, bool mustComplete) {
    if (newBound > handed) {
      std::size_t pending = 0;
      for (std::size_t i = handed; i < newBound; ++i)
        if (serialFlag[i - first] == 0) ++pending;
      if (pending == 0) {
        handed = newBound;
      } else if (pending <= stealCap) {
        if (!anyOutstanding()) {
          stealRange(handed, newBound, pending);
          handed = newBound;
        } else if (mustComplete) {
          quiesce();  // workers idle again: stealing is legal
          stealRange(handed, newBound, pending);
          handed = newBound;
        }
        // else: deferred — the range stays below a future hand-off (or the
        // shutdown sentinel), which delegates it with everything else.
      } else {
        publishRange(newBound);
        handed = newBound;
      }
    }
    if (mustComplete) quiesce();
  };

  std::size_t scan = first;  // next unclassified contact
  bool biasCleared = false;
  sim::tlsShard.ctx = 0;
  for (;;) {
    sim::SimTime qt = 0.0;
    sim::EventQueue::Sequence qs = 0;
    sim::EventScope qscope = sim::EventScope::kFence;
    bool haveQ = sim.peekNextKey(qt, qs, qscope);
    if (haveQ && qt > horizon) haveQ = false;

    // Hand off boring contacts until the next serial event: the earlier of
    // the pending queue event and the next fence contact, in (time, seq)
    // order. A contact handed off here has every serial event below its key
    // already executed or (when shard-local) started-and-finished on this
    // thread, so the fence it was classified against is exactly the state it
    // logically runs under. Classification reads the expiry watermarks at
    // the contact's own time: activity only *decays* between serial events
    // (expiry is a pure function of time), never appears.
    std::ptrdiff_t fence = -1;
    while (scan < end) {
      const trace::Contact& c = contacts[scan];
      const sim::EventQueue::Sequence cseq = seqBase + (scan - first);
      if (haveQ && (qt < c.start || (qt == c.start && qs < cseq))) break;
      if (coop.nodeProtocolActive(c.a, c.start) || coop.nodeProtocolActive(c.b, c.start)) {
        serialFlag[scan - first] = 1;
        fence = static_cast<std::ptrdiff_t>(scan);
        break;
      }
      ++scan;
    }

    if (fence >= 0) {
      handOff(static_cast<std::size_t>(fence), /*mustComplete=*/true);
      const trace::Contact& c = contacts[static_cast<std::size_t>(fence)];
      sim::tlsShard.ctx = 0;
      sim::tlsShard.evTime = c.start;
      sim::tlsShard.evSeq = seqBase + (static_cast<std::size_t>(fence) - first);
      sim.advanceClockTo(c.start);
      network.deliverSharded(static_cast<std::size_t>(fence));
      ++stats.fenceContacts;
      ++scan;
    } else if (haveQ && qscope == sim::EventScope::kShardLocal) {
      // Shard-local timer lane: the callback commutes with boring contacts
      // (the scheduler's EventScope promise), so run it concurrently with
      // whatever the workers still hold — no quiesce. This is what keeps
      // timer-heavy schemes off the barrier.
      handOff(scan, /*mustComplete=*/false);
      sim::tlsShard.ctx = 0;
      sim::tlsShard.evTime = qt;
      sim::tlsShard.evSeq = qs;
      sim.runOneEvent();
      ++stats.serialEvents;
      ++stats.localTimerEvents;
    } else if (haveQ) {
      handOff(scan, /*mustComplete=*/true);
      sim::tlsShard.ctx = 0;
      sim::tlsShard.evTime = qt;
      sim::tlsShard.evSeq = qs;
      sim.runOneEvent();
      ++stats.serialEvents;
    } else {
      break;  // queue drained past the horizon, remaining contacts all boring
    }

    if (!biasCleared && scan == end && end == contacts.size()) {
      // The last trace contact is handed off or executed: plain mode's
      // stream runs dry here, so the phantom pending slot goes with it. Contact
      // callbacks schedule nothing, so the hand-off-to-execution gap cannot
      // move any high-water check.
      sim.setPendingBias(0);
      biasCleared = true;
    }
  }

  // Release the tail of boring contacts and shut the workers down. stop is
  // stored before the sentinel bound so a worker that drains to the sentinel
  // always observes it.
  stop.store(true, std::memory_order_release);
  bound.store(sentinel, std::memory_order_release);
  bound.notify_all();
  for (std::thread& t : workers) t.join();
  if (!biasCleared && end == contacts.size()) sim.setPendingBias(0);

  stats.boringContacts =
      stats.contactsProcessed - stats.fenceContacts - stats.stolenContacts;

  estimator.exitShardMode();
  network.exitShardMode();
  if (tracer != nullptr) tracer->exitShardMode();
  registry.exitShardMode();

  sim.advanceClockTo(horizon);
  return stats;
}

}  // namespace dtncache::runner
