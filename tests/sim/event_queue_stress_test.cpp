/// \file event_queue_stress_test.cpp
/// Randomized interleaving stress for the EventQueue heap against a naive
/// reference model.
///
/// The fuzz test (event_queue_fuzz_test.cpp) uses continuous times, where
/// ties have measure zero. This stress deliberately uses DISCRETE times so
/// that same-time events are common — the regime where the (time, sequence)
/// FIFO tiebreak actually carries the determinism guarantee. The reference model is a plain vector searched
/// linearly: trivially correct, no shared code with the real queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace dtncache::sim {
namespace {

/// Reference: schedule order IS the FIFO rank among equal times.
struct RefEvent {
  SimTime time;
  std::uint64_t order;   ///< global schedule counter
  std::uint64_t payload; ///< identity checked at pop
  bool alive;
};

class ReferenceQueue {
 public:
  void schedule(SimTime at, std::uint64_t payload) {
    events_.push_back({at, nextOrder_++, payload, true});
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& e : events_)
      if (e.alive) ++n;
    return n;
  }
  /// Pops the earliest (time, order) live event; returns its payload.
  std::uint64_t pop(SimTime* timeOut) {
    const RefEvent* best = nullptr;
    for (const auto& e : events_) {
      if (!e.alive) continue;
      if (!best || e.time < best->time ||
          (e.time == best->time && e.order < best->order)) {
        best = &e;
      }
    }
    EXPECT_NE(best, nullptr);
    const_cast<RefEvent*>(best)->alive = false;
    *timeOut = best->time;
    return best->payload;
  }

 private:
  std::vector<RefEvent> events_;
  std::uint64_t nextOrder_ = 0;
};

TEST(EventQueueStress, MatchesNaiveReferenceUnderRandomInterleaving) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    std::mt19937_64 rng(seed);
    EventQueue queue;
    ReferenceQueue ref;
    std::vector<std::uint64_t> popped;  // payloads, queue side
    std::vector<std::uint64_t> refPopped;
    std::uint64_t nextPayload = 0;
    SimTime now = 0.0;

    for (int step = 0; step < 4000; ++step) {
      const auto op = rng() % 10;
      if (op < 5) {
        // Schedule at a coarse discrete time so ties are frequent.
        const SimTime at = now + static_cast<SimTime>(rng() % 8);
        const std::uint64_t payload = nextPayload++;
        queue.schedule(at, [payload, &popped](SimTime) { popped.push_back(payload); });
        ref.schedule(at, payload);
      } else if (!queue.empty()) {
        SimTime refTime = 0.0;
        refPopped.push_back(ref.pop(&refTime));
        const SimTime qTime = queue.runNext();
        EXPECT_EQ(qTime, refTime) << "seed " << seed << " step " << step;
        now = qTime;
      }
      ASSERT_EQ(queue.size(), ref.size()) << "seed " << seed << " step " << step;
    }

    // Drain.
    while (!queue.empty()) {
      SimTime refTime = 0.0;
      refPopped.push_back(ref.pop(&refTime));
      EXPECT_EQ(queue.runNext(), refTime);
    }
    EXPECT_EQ(popped, refPopped) << "pop order diverged for seed " << seed;
    EXPECT_EQ(ref.size(), 0u);
  }
}

TEST(EventQueueStress, ReservedSequencesInterleaveAheadOfLaterSchedules) {
  // A block of sequence numbers reserved up front outranks events scheduled
  // afterwards at the same time — the mechanism the contact stream uses to
  // stay byte-identical with the old eager fan-out.
  struct TwoAtFive : EventStream {
    std::vector<int>* order = nullptr;
    SimTime timeAt(std::size_t) const override { return 5.0; }
    void fire(std::size_t k, SimTime) override { order->push_back(static_cast<int>(k) + 1); }
  };
  Simulator s;
  std::vector<int> order;
  TwoAtFive stream;
  stream.order = &order;
  const auto base = s.reserveSequences(2);
  s.scheduleAt(5.0, [&](SimTime) { order.push_back(3); });  // scheduled first...
  s.attachStream(stream, 2, base);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));  // ...but fires last
}

TEST(EventQueueStress, PeriodicSeriesInterleavesFifoWithOneShots) {
  // Periodic re-arms draw fresh sequence numbers at fire time, so a
  // periodic tick scheduled for time T ranks AFTER any one-shot already
  // scheduled for T — schedule order is fire order among equal times.
  Simulator s;
  std::vector<int> order;
  s.schedulePeriodic(1.0, [&](SimTime) { order.push_back(0); });
  s.scheduleAt(2.0, [&](SimTime) { order.push_back(1); });
  s.scheduleAt(3.0, [&](SimTime) { order.push_back(2); });
  s.runUntil(3.5);
  // t=1: tick. t=2: the one-shot was scheduled before the t=2 re-arm, so it
  // fires first. Same at t=3.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 2, 0}));
}

}  // namespace
}  // namespace dtncache::sim
