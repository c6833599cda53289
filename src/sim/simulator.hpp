#pragma once

/// \file simulator.hpp
/// The discrete-event simulation kernel.
///
/// Owns the clock and the pending-event set. Protocol code schedules
/// callbacks at absolute times or relative delays; run()/runUntil() drive
/// the event loop. Periodic activities (source refresh, maintenance timers,
/// metric sampling) are expressed with schedulePeriodic(), which re-arms
/// itself for the rest of the run; no event is ever cancelled. A time-sorted
/// producer that knows all its events upfront (net::Network's contact trace)
/// attaches as an EventStream instead: the loop takes each next event from
/// whichever of the queue head and the stream head has the smaller (time,
/// FIFO rank) key, so stream events never enter the heap.

#include <cstddef>
#include <deque>
#include <limits>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dtncache::sim {

/// A pre-sorted event source merged into the simulator's event order (see
/// Simulator::attachStream). Events are numbered 0..count-1.
class EventStream {
 public:
  /// Time of event `k`; non-decreasing in k.
  virtual SimTime timeAt(std::size_t k) const = 0;
  /// Deliver event `k`. The clock already reads its time `t`.
  virtual void fire(std::size_t k, SimTime t) = 0;

 protected:
  ~EventStream() = default;
};

class Simulator {
 public:
  Simulator() = default;
  // Scheduled periodic re-arms hold `this`.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now()). The scope is the
  /// scheduler's promise about the callback (see EventScope); default to
  /// kFence unless the callback provably commutes with worker-run contacts.
  void scheduleAt(SimTime at, EventFn fn, EventScope scope = EventScope::kFence) {
    DTNCACHE_CHECK_MSG(at >= now_, "scheduleAt in the past: " << at << " < " << now_);
    queue_.schedule(at, std::move(fn), scope);
  }

  /// Schedule `fn` after a non-negative delay from now().
  void scheduleAfter(SimTime delay, EventFn fn, EventScope scope = EventScope::kFence) {
    DTNCACHE_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
    queue_.schedule(now_ + delay, std::move(fn), scope);
  }

  /// Claim `n` consecutive FIFO ranks for a later attachStream. A streaming
  /// producer (net::Network's contact trace) reserves one rank per future
  /// event upfront; its events then interleave with simultaneous events
  /// exactly as if all had been scheduled at reservation time. See
  /// docs/performance.md.
  EventQueue::Sequence reserveSequences(std::size_t n) {
    return queue_.reserveSequences(n);
  }

  /// Schedule `fn` to fire every `period` seconds for the rest of the run.
  /// The first firing is at now()+phase, or now()+period when phase is
  /// kDefaultPhase. Each firing re-arms the series before the callback runs,
  /// so the next tick draws its FIFO rank ahead of anything the callback
  /// schedules.
  static constexpr SimTime kDefaultPhase = -1.0;
  void schedulePeriodic(SimTime period, EventFn fn, SimTime phase = kDefaultPhase,
                        EventScope scope = EventScope::kFence) {
    DTNCACHE_CHECK(period > 0.0);
    if (phase == kDefaultPhase) phase = period;
    DTNCACHE_CHECK(phase >= 0.0);
    series_.push_back(PeriodicSeries{std::move(fn), period, scope});
    armPeriodic(series_.size() - 1, now_ + phase);
  }

  /// Merge `count` events of `stream` into the event order without
  /// scheduling them: event k fires at stream.timeAt(k) with FIFO rank
  /// `firstSeq + k`, ranks the caller claimed with reserveSequences. A
  /// non-empty stream counts as one pending event (pendingEvents and
  /// peakPendingEvents), and each fired stream event as one processed
  /// event. At most one stream per simulator; `stream` must outlive the
  /// run.
  void attachStream(EventStream& stream, std::size_t count, EventQueue::Sequence firstSeq) {
    DTNCACHE_CHECK_MSG(stream_ == nullptr, "a stream is already attached");
    if (count == 0) return;
    stream_ = &stream;
    streamNext_ = 0;
    streamEnd_ = count;
    streamSeq_ = firstSeq;
    streamTime_ = stream.timeAt(0);
    DTNCACHE_CHECK_MSG(streamTime_ >= now_, "stream starts in the past: " << streamTime_);
    queue_.setPeakBias(1);
  }

  /// Run until the event set is exhausted.
  void run() {
    while (fireNext(std::numeric_limits<SimTime>::infinity())) {
    }
  }

  /// Run events with time <= `until`, then advance the clock to `until`.
  void runUntil(SimTime until) {
    DTNCACHE_CHECK(until >= now_);
    while (fireNext(until)) {
    }
    now_ = until;
  }

  /// (time, sequence) key and scope of the earliest queued event, or false
  /// when the queue is empty. The sharded runner (which attaches no stream:
  /// it pulls contacts itself) uses this to choose each merge barrier's
  /// bound without popping anything, and the scope to decide whether
  /// running the event requires quiescing the workers first.
  bool peekNextKey(SimTime& t, EventQueue::Sequence& seq, EventScope& scope) const {
    return queue_.peekKey(t, seq, scope);
  }

  /// Pop and run exactly the earliest pending event, advancing the clock to
  /// its time first (same clock discipline as runUntil's loop body).
  /// Precondition: the queue is non-empty.
  void runOneEvent() {
    now_ = queue_.peekTime();
    queue_.runNext();
  }

  /// Advance the clock to `t` without running anything — the sharded
  /// runner's equivalent of runUntil's trailing `now_ = until`. The clock
  /// never moves backwards.
  void advanceClockTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Queued events, plus one while an attached stream has events left.
  std::size_t pendingEvents() const { return queue_.size() + (streamLive() ? 1 : 0); }

  /// Count `n` phantom pending events in peak tracking. Both kernels deliver
  /// contacts outside the queue and count the contact stream as one pending
  /// event while contacts remain: attachStream sets this bias for the plain
  /// kernel, the sharded runner sets it itself, so peakPendingEvents() is
  /// byte-identical across kernels. Scheduling a real dummy event instead
  /// would burn a sequence number and reorder simultaneous events — the
  /// bias must stay out of the FIFO rank space.
  void setPendingBias(std::size_t n) { queue_.setPeakBias(n); }

  /// High-water mark of the pending-event set over the simulator's lifetime
  /// — the kernel's memory footprint driver (see docs/performance.md).
  std::size_t peakPendingEvents() const { return queue_.peakSize(); }

  /// Total events fired so far, stream events included (throughput
  /// denominator for benchmarks).
  std::uint64_t eventsProcessed() const { return queue_.processed() + streamFired_; }

 private:
  bool streamLive() const { return streamNext_ < streamEnd_; }

  /// Fire the earliest pending event if its time is <= `until`: the stream
  /// head when its (time, rank) key is below the queue head's, else the
  /// queue head. Returns false when no event is due. The clock advances
  /// before the callback runs, so now() is correct inside it (scheduleAfter
  /// from a handler measures from the handler's own firing time).
  bool fireNext(SimTime until) {
    SimTime qt = 0.0;
    EventQueue::Sequence qs = 0;
    EventScope scope{};
    const bool haveQ = queue_.peekKey(qt, qs, scope);
    if (streamLive() &&
        (!haveQ || streamTime_ < qt || (streamTime_ == qt && streamSeq_ < qs))) {
      if (streamTime_ > until) return false;
      const std::size_t k = streamNext_++;
      now_ = streamTime_;
      ++streamSeq_;
      ++streamFired_;
      if (streamLive()) {
        streamTime_ = stream_->timeAt(streamNext_);
      } else {
        queue_.setPeakBias(0);  // the last event takes the stream's pending slot
      }
      stream_->fire(k, now_);
      return true;
    }
    if (!haveQ || qt > until) return false;
    now_ = qt;
    queue_.runNext();
    return true;
  }

  struct PeriodicSeries {
    EventFn fn;
    SimTime period;
    EventScope scope;
  };

  /// Schedule series `k`'s next firing at `at`. The event captures only the
  /// index, and series_ is a deque, so a callback that starts another series
  /// (appending to series_) never moves the callback that is running.
  void armPeriodic(std::size_t k, SimTime at) {
    queue_.schedule(
        at,
        [this, k](SimTime t) {
          armPeriodic(k, t + series_[k].period);
          series_[k].fn(t);
        },
        series_[k].scope);
  }

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::deque<PeriodicSeries> series_;

  EventStream* stream_ = nullptr;
  std::size_t streamNext_ = 0;  ///< index of the stream head
  std::size_t streamEnd_ = 0;
  SimTime streamTime_ = 0.0;    ///< time of the stream head
  EventQueue::Sequence streamSeq_ = 0;  ///< FIFO rank of the stream head
  std::uint64_t streamFired_ = 0;
};

}  // namespace dtncache::sim
