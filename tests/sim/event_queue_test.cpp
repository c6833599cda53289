#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dtncache::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.peekTime(), kNever);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&](SimTime) { order.push_back(3); });
  q.schedule(1.0, [&](SimTime) { order.push_back(1); });
  q.schedule(2.0, [&](SimTime) { order.push_back(2); });
  while (!q.empty()) q.runNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&order, i](SimTime) { order.push_back(i); });
  while (!q.empty()) q.runNext();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ReportsFiringTime) {
  EventQueue q;
  SimTime seen = -1.0;
  q.schedule(7.5, [&](SimTime t) { seen = t; });
  const SimTime ran = q.runNext();
  EXPECT_DOUBLE_EQ(ran, 7.5);
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(10.0, [](SimTime) {});
  q.runNext();
  EXPECT_THROW(q.schedule(5.0, [](SimTime) {}), InvariantViolation);
}

TEST(EventQueue, SchedulingAtCurrentTimeIsAllowed) {
  EventQueue q;
  int fired = 0;
  q.schedule(10.0, [&](SimTime) {
    q.schedule(10.0, [&](SimTime) { ++fired; });
  });
  q.runNext();
  q.runNext();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ManyInterleavedOperationsStayOrdered) {
  EventQueue q;
  std::vector<SimTime> fired;
  for (int i = 100; i > 0; --i)
    q.schedule(static_cast<SimTime>(i), [&](SimTime t) { fired.push_back(t); });
  while (!q.empty()) q.runNext();
  ASSERT_EQ(fired.size(), 100u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LT(fired[i - 1], fired[i]);
}

}  // namespace
}  // namespace dtncache::sim
