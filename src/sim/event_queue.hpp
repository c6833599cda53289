#pragma once

/// \file event_queue.hpp
/// Pending-event set for the discrete-event engine: one binary heap of
/// {time, sequence, scope, callback} entries ordered by (time, sequence).
///
/// Contacts, which are nearly all of a run's events, never enter this set —
/// Simulator merges them in from the network's EventStream. What remains is
/// timer traffic (version bumps, maintenance, queries, metric samples): about
/// 2 % of events, a few hundred to a few thousand pending at once (see
/// docs/performance.md). Events are never cancelled, so a plain heap of
/// std::function entries is all the set needs.
///
/// The sequence number makes simultaneous events fire FIFO in scheduling
/// order, which keeps whole runs reproducible bit-for-bit for a given seed.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace dtncache::sim {

/// Callback invoked when an event fires. Receives the firing time.
using EventFn = std::function<void(SimTime)>;

/// Execution scope of a queued event under the sharded kernel
/// (runner/shard_driver). The scope is a *scheduling-time promise* about the
/// callback, not something the queue enforces:
///   - kFence (default): the callback may touch any protocol state, so the
///     coordinator must quiesce worker threads before running it.
///   - kShardLocal: the callback commutes with worker-executed boring
///     contacts — it writes only coordinator-owned state (collector, its own
///     scheme structures, per-context sinks) and reads nothing workers write
///     (estimator pair state), and it does not change any node's
///     protocol-activity status. The coordinator may run it without a
///     barrier, which is what makes timer-heavy schemes shardable.
/// Plain single-threaded runs ignore the scope entirely.
enum class EventScope : std::uint8_t {
  kFence = 0,
  kShardLocal = 1,
};

class EventQueue {
 public:
  /// FIFO rank among simultaneous events. Assigned internally by
  /// schedule(); reserveSequences() hands out a contiguous block so a
  /// streaming producer (net::Network's contact stream, which
  /// Simulator merges against this queue) keeps ranks for events that never
  /// enter the queue, and they fire exactly as if they had all been
  /// scheduled at reservation time.
  using Sequence = std::uint64_t;

  /// Insert an event at absolute time `at`. `at` may equal the time of the
  /// most recently popped event (zero-delay follow-ups) but must never be
  /// earlier.
  void schedule(SimTime at, EventFn fn, EventScope scope = EventScope::kFence) {
    DTNCACHE_CHECK_MSG(at >= lastPopped_, "event scheduled in the past: at="
                                              << at << " now=" << lastPopped_);
    DTNCACHE_CHECK(static_cast<bool>(fn));
    heap_.push_back(Entry{at, nextSeq_++, scope, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    notePeak();
  }

  /// Claim the next `n` FIFO ranks without scheduling anything.
  Sequence reserveSequences(std::size_t n) {
    const Sequence first = nextSeq_;
    nextSeq_ += n;
    return first;
  }

  bool empty() const { return heap_.empty(); }

  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event; kNever when empty.
  SimTime peekTime() const { return heap_.empty() ? kNever : heap_.front().time; }

  /// Full (time, sequence) ordering key and declared scope of the earliest
  /// event. Simulator merges its stream against this key; the sharded
  /// runner also publishes it as the merge bound and reads the scope to
  /// decide whether the event needs a worker barrier. Returns false when
  /// empty.
  bool peekKey(SimTime& time, Sequence& seq, EventScope& scope) const {
    if (heap_.empty()) return false;
    time = heap_.front().time;
    seq = heap_.front().seq;
    scope = heap_.front().scope;
    return true;
  }

  /// Pop and run the earliest event. Precondition: !empty().
  /// Returns the time the event fired at.
  SimTime runNext() {
    DTNCACHE_CHECK(!heap_.empty());
    // Move the entry out before invoking it: the callback may schedule,
    // which can regrow the heap's storage.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    ++processed_;
    lastPopped_ = e.time;
    e.fn(e.time);
    return e.time;
  }

  /// Lifetime high-water mark of the pending set.
  std::size_t peakSize() const { return peakSize_; }

  /// Phantom events included in peak tracking (see Simulator::setPendingBias).
  /// Applying a bias performs the same high-water check a schedule() of that
  /// many events would, so raising it is equivalent to the elided schedule.
  void setPeakBias(std::size_t n) {
    peakBias_ = n;
    notePeak();
  }
  /// Total events fired over the queue's lifetime.
  std::uint64_t processed() const { return processed_; }

 private:
  struct Entry {
    SimTime time;
    Sequence seq;
    EventScope scope;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };

  void notePeak() { peakSize_ = std::max(peakSize_, heap_.size() + peakBias_); }

  std::vector<Entry> heap_;  ///< std::push_heap/pop_heap order under Later
  Sequence nextSeq_ = 1;
  SimTime lastPopped_ = 0.0;
  std::size_t peakSize_ = 0;
  std::size_t peakBias_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace dtncache::sim
