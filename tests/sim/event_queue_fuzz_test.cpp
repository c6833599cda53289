/// Model-based fuzz of the EventQueue: random interleavings of schedule and
/// run are checked against a trivially-correct reference (a map from
/// schedule order to time). Catches ordering and size-accounting bugs that
/// example-based tests miss.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace dtncache::sim {
namespace {

class EventQueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueFuzz, MatchesReferenceModel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 1);

  EventQueue queue;
  // Reference: schedule order -> time for pending events. Schedule order is
  // also the FIFO rank among equal times.
  std::map<std::uint64_t, SimTime> model;
  std::vector<std::uint64_t> firedReal;
  std::uint64_t nextOrder = 0;
  SimTime now = 0.0;

  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.uniformInt(0, 9));
    if (op <= 5) {  // schedule
      const SimTime at = now + rng.uniform(0.0, 100.0);
      const std::uint64_t order = nextOrder++;
      queue.schedule(at, [&firedReal, order](SimTime) { firedReal.push_back(order); });
      model[order] = at;
    } else if (!queue.empty()) {  // run one
      // Reference expectation: the pending event with the smallest
      // (time, schedule order).
      ASSERT_FALSE(model.empty());
      std::uint64_t expectOrder = 0;
      SimTime expectTime = 0.0;
      bool first = true;
      for (const auto& [order, t] : model) {
        if (first || t < expectTime) {
          expectOrder = order;
          expectTime = t;
          first = false;
        }
      }
      const SimTime ran = queue.runNext();
      EXPECT_DOUBLE_EQ(ran, expectTime);
      ASSERT_FALSE(firedReal.empty());
      EXPECT_EQ(firedReal.back(), expectOrder);
      model.erase(expectOrder);
      now = ran;
    }
    EXPECT_EQ(queue.size(), model.size());
    EXPECT_EQ(queue.empty(), model.empty());
    if (!model.empty()) {
      SimTime minTime = 1e300;
      for (const auto& [order, t] : model) minTime = std::min(minTime, t);
      EXPECT_DOUBLE_EQ(queue.peekTime(), minTime);
    } else {
      EXPECT_EQ(queue.peekTime(), kNever);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInterleavings, EventQueueFuzz, ::testing::Range(0, 20));

}  // namespace
}  // namespace dtncache::sim
