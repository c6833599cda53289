#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace dtncache::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator s;
  std::vector<SimTime> seen;
  s.scheduleAt(5.0, [&](SimTime t) { seen.push_back(t); });
  s.scheduleAfter(2.0, [&](SimTime t) { seen.push_back(t); });
  s.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.scheduleAt(1.0, [&](SimTime) { ++fired; });
  s.scheduleAt(10.0, [&](SimTime) { ++fired; });
  s.runUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.runUntil(20.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 20.0);
}

TEST(Simulator, EventsCanScheduleFollowUps) {
  Simulator s;
  std::vector<SimTime> seen;
  s.scheduleAt(1.0, [&](SimTime t) {
    seen.push_back(t);
    s.scheduleAfter(1.5, [&](SimTime t2) { seen.push_back(t2); });
  });
  s.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{1.0, 2.5}));
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator s;
  s.scheduleAt(3.0, [](SimTime) {});
  s.run();
  EXPECT_THROW(s.scheduleAt(2.0, [](SimTime) {}), InvariantViolation);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator s;
  EXPECT_THROW(s.scheduleAfter(-1.0, [](SimTime) {}), InvariantViolation);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
  Simulator s;
  std::vector<SimTime> seen;
  s.schedulePeriodic(2.0, [&](SimTime t) { seen.push_back(t); });
  s.runUntil(7.0);
  EXPECT_EQ(seen, (std::vector<SimTime>{2.0, 4.0, 6.0}));
}

TEST(Simulator, PeriodicHonorsPhase) {
  Simulator s;
  std::vector<SimTime> seen;
  s.schedulePeriodic(3.0, [&](SimTime t) { seen.push_back(t); }, /*phase=*/0.5);
  s.runUntil(7.0);
  EXPECT_EQ(seen, (std::vector<SimTime>{0.5, 3.5, 6.5}));
}

TEST(Simulator, PeriodicCallbackMayStartAnotherSeries) {
  // Each tick of the first series starts another series while its own
  // callback is running, then reads its captures. Series storage that moved
  // a running callback when it grew would make that read a use after free
  // (reported under ASan).
  Simulator s;
  std::vector<std::vector<SimTime>> seen(1);
  s.schedulePeriodic(1.0, [&s, &seen](SimTime t) {
    if (seen.size() < 40) {
      const std::size_t k = seen.size();
      seen.emplace_back();
      s.schedulePeriodic(1.0, [&seen, k](SimTime t2) { seen[k].push_back(t2); }, 0.5);
    }
    seen[0].push_back(t);
  });
  s.runUntil(41.0);
  ASSERT_EQ(seen.size(), 40u);
  EXPECT_EQ(seen[0].size(), 41u);  // 1, 2, ..., 41
  for (std::size_t k = 1; k < seen.size(); ++k) {
    // Series k starts at time k and fires at k + 0.5, k + 1.5, ..., 40.5.
    ASSERT_EQ(seen[k].size(), 41 - k) << "series " << k;
    EXPECT_DOUBLE_EQ(seen[k].front(), static_cast<SimTime>(k) + 0.5);
    EXPECT_DOUBLE_EQ(seen[k].back(), 40.5);
  }
}

TEST(Simulator, CallbackMaySchedulePastHeapCapacity) {
  // One callback schedules 1,000 events, regrowing the heap's storage many
  // times while it runs, then reads its captures. The queue must have moved
  // the running entry out of the heap before invoking it.
  Simulator s;
  std::vector<std::pair<SimTime, int>> fired;
  s.scheduleAt(1.0, [&s, &fired](SimTime t) {
    for (int i = 0; i < 1000; ++i)
      s.scheduleAt(t + 1.0 + (i % 10), [&fired, i](SimTime t2) { fired.emplace_back(t2, i); });
    fired.emplace_back(t, -1);
  });
  s.run();
  // Time order, and schedule order among equal times.
  std::vector<std::pair<SimTime, int>> want{{1.0, -1}};
  for (int slot = 0; slot < 10; ++slot)
    for (int i = slot; i < 1000; i += 10) want.emplace_back(2.0 + slot, i);
  EXPECT_EQ(fired, want);
  EXPECT_EQ(s.peakPendingEvents(), 1000u);
  EXPECT_EQ(s.eventsProcessed(), 1001u);
}

}  // namespace
}  // namespace dtncache::sim
