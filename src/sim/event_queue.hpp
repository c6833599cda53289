#pragma once

/// \file event_queue.hpp
/// Pending-event set for the discrete-event engine.
///
/// Two-level structure tuned for throughput (measured by bench_micro's
/// BM_EventQueueThroughput; see docs/performance.md):
///
///   - a binary heap of 24-byte POD entries (time, sequence, id). The
///     sequence number makes simultaneous events fire FIFO in scheduling
///     order, which keeps whole runs reproducible bit-for-bit for a given
///     seed. Sift operations move only these PODs, never callables.
///   - a slot table owning the callbacks. Heap entries name their slot via
///     a generation-stamped id; cancellation frees the slot and bumps its
///     generation (O(1), no hashing), and the stale heap entry is discarded
///     when it surfaces at the top. Freed slots are recycled through a free
///     list, so a steady-state simulation allocates nothing per event.
///
/// Callables are sim::EventCallback (48-byte small-buffer optimization), so
/// typical protocol callbacks never touch the heap either.

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/assert.hpp"
#include "sim/event_callback.hpp"
#include "sim/time.hpp"

namespace dtncache::sim {

/// Identifies a scheduled event so it can be cancelled. Encodes slot-index+1
/// (low 32 bits, so 0 is never a valid id and works as a "none" sentinel)
/// and the slot's generation at allocation (next 30 bits). Ids therefore
/// stay below 2^62: Simulator's periodic-series id space (bit 62 upward)
/// never collides. A slot's generation wraps after 2^30 reuses — cancelling
/// an id retained across a billion reuses of its slot could alias, which no
/// real caller does (ids are cancelled promptly or dropped).
using EventId = std::uint64_t;

/// Callback invoked when an event fires. Receives the firing time.
using EventFn = EventCallback;

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

  /// Insert an event at absolute time `at`. Returns an id usable with
  /// cancel(). `at` may equal the time of the most recently popped event
  /// (zero-delay follow-ups) but must never be earlier.
  EventId schedule(SimTime at, EventFn fn, EventScope scope = EventScope::kFence) {
    DTNCACHE_CHECK_MSG(at >= lastPopped_, "event scheduled in the past: at="
                                              << at << " now=" << lastPopped_);
    DTNCACHE_CHECK(static_cast<bool>(fn));
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
      slot = freeSlots_.back();
      freeSlots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].fn = std::move(fn);
    slots_[slot].scope = scope;
    const EventId id = makeId(slot, slots_[slot].generation);
    heap_.push(HeapEntry{at, nextSeq_++, id});
    ++live_;
    if (live_ + peakBias_ > peakSize_) peakSize_ = live_ + peakBias_;
    return id;
  }

  /// Claim the next `n` FIFO ranks without scheduling anything.
  Sequence reserveSequences(std::size_t n) {
    const Sequence first = nextSeq_;
    nextSeq_ += n;
    return first;
  }

  /// Cancel a pending event: O(1) — frees the slot and bumps its
  /// generation, leaving the heap entry to be lazily discarded. Cancelling
  /// an already-fired or already-cancelled id is a harmless no-op (the
  /// generation no longer matches).
  void cancel(EventId id) {
    const std::uint32_t slot = slotOf(id);
    if (slot >= slots_.size() || slots_[slot].generation != generationOf(id)) return;
    freeSlot(slot);
    --live_;
  }

  bool empty() const { return live_ == 0; }

  std::size_t size() const { return live_; }

  /// Time of the earliest live event; kNever when empty.
  SimTime peekTime() {
    purgeStale();
    return heap_.empty() ? kNever : heap_.top().time;
  }

  /// Full (time, sequence) ordering key of the earliest live event. The
  /// sharded runner publishes this key as the merge bound: every stream
  /// entry strictly below it fires before the queue event would, exactly
  /// as the single-threaded loop interleaves them. Returns false when empty.
  bool peekKey(SimTime& time, Sequence& seq) {
    purgeStale();
    if (heap_.empty()) return false;
    time = heap_.top().time;
    seq = heap_.top().seq;
    return true;
  }

  /// peekKey plus the head event's declared scope, so the sharded runner can
  /// decide whether the event needs a worker barrier before it runs.
  bool peekKey(SimTime& time, Sequence& seq, EventScope& scope) {
    purgeStale();
    if (heap_.empty()) return false;
    time = heap_.top().time;
    seq = heap_.top().seq;
    scope = slots_[slotOf(heap_.top().id)].scope;
    return true;
  }

  /// Pop and run the earliest live event. Precondition: !empty().
  /// Returns the time the event fired at.
  SimTime runNext() {
    purgeStale();
    DTNCACHE_CHECK(!heap_.empty());
    const HeapEntry e = heap_.top();
    heap_.pop();
    const std::uint32_t slot = slotOf(e.id);
    EventCallback fn = std::move(slots_[slot].fn);
    // Free before invoking: the callback may schedule (reusing the slot
    // under a fresh generation) or cancel its own id (a no-op, as before).
    freeSlot(slot);
    --live_;
    ++processed_;
    lastPopped_ = e.time;
    fn(e.time);
    return e.time;
  }

  /// Remove every pending event. Outstanding ids stay safely cancellable
  /// (their generations are bumped); the clock floor is kept.
  void clear() {
    heap_ = {};
    for (std::uint32_t s = 0; s < slots_.size(); ++s)
      if (slots_[s].fn) freeSlot(s);
    live_ = 0;
  }

  /// Lifetime high-water mark of the pending set (not reset by clear()).
  std::size_t peakSize() const { return peakSize_; }

  /// Phantom events included in peak tracking (see Simulator::setPendingBias).
  /// Applying a bias performs the same high-water check a schedule() of that
  /// many events would, so raising it is equivalent to the elided schedule.
  void setPeakBias(std::size_t n) {
    peakBias_ = n;
    if (live_ + peakBias_ > peakSize_) peakSize_ = live_ + peakBias_;
  }
  /// Total events fired over the queue's lifetime.
  std::uint64_t processed() const { return processed_; }

 private:
  struct HeapEntry {
    SimTime time;
    Sequence seq;
    EventId id;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };
  struct Slot {
    EventCallback fn;
    std::uint32_t generation = 0;
    EventScope scope = EventScope::kFence;
  };

  static constexpr std::uint32_t kGenerationMask = (1u << 30) - 1;

  static EventId makeId(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | (slot + 1);
  }
  static std::uint32_t slotOf(EventId id) { return static_cast<std::uint32_t>(id) - 1; }
  static std::uint32_t generationOf(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  void freeSlot(std::uint32_t slot) {
    slots_[slot].fn.reset();
    slots_[slot].generation = (slots_[slot].generation + 1) & kGenerationMask;
    freeSlots_.push_back(slot);
  }

  /// A heap entry is stale when its slot moved on to a new generation
  /// (the event was cancelled, or the slot was freed by clear()).
  bool stale(const HeapEntry& e) const {
    return slots_[slotOf(e.id)].generation != generationOf(e.id);
  }

  void purgeStale() {
    while (!heap_.empty() && stale(heap_.top())) heap_.pop();
  }

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  std::size_t live_ = 0;
  Sequence nextSeq_ = 1;
  SimTime lastPopped_ = 0.0;
  std::size_t peakSize_ = 0;
  std::size_t peakBias_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace dtncache::sim
