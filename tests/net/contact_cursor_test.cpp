/// \file contact_cursor_test.cpp
/// Equivalence of the streamed contact delivery with the old eager fan-out.
///
/// Network::start used to schedule one closure per contact up front. The
/// trace is now a stream the kernel merges against its queue head: every
/// contact keeps the FIFO rank reserved for it at start(), but none ever
/// enters the event heap. These tests pin the observable contract: the
/// delivery sequence (including loss draws, filter suppression, and warm-up
/// truncation) is identical to an eager fan-out reference built on the same
/// simulator primitives, ordering against same-time foreign events is
/// unchanged, the pending set no longer scales with trace length, and the
/// kernel's event counts equal those of the self-rescheduling cursor event
/// the stream replaced.

#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/contact.hpp"
#include "trace/generators.hpp"

namespace dtncache::net {
namespace {

struct Delivery {
  NodeId a;
  NodeId b;
  sim::SimTime t;
  sim::SimTime duration;
  std::uint64_t budget;
  bool operator==(const Delivery&) const = default;
};

trace::ContactTrace syntheticTrace(std::uint64_t seed) {
  trace::SyntheticTraceConfig cfg;
  cfg.nodeCount = 20;
  cfg.duration = sim::hours(6);
  cfg.meanContactsPerPairPerDay = 40.0;  // dense: ties & volume in 6 sim-hours
  cfg.seed = seed;
  return trace::generate(cfg).trace;
}

/// Eager fan-out reference: the pre-cursor Network::start, reconstructed on
/// the public simulator API. One closure per contact, scheduled in trace
/// order; an independent Rng replica consumes loss draws in delivery order.
std::vector<Delivery> eagerReference(const trace::ContactTrace& trace,
                                     const NetworkConfig& cfg, sim::SimTime startAt,
                                     sim::SimTime runUntil,
                                     const Network::ContactFilter& filter) {
  sim::Simulator s;
  s.runUntil(startAt);
  sim::Rng lossRng(cfg.lossSeed);
  std::vector<Delivery> out;
  for (const auto& c : trace.contacts()) {
    if (c.start < s.now()) continue;  // warm-up prefix skip
    s.scheduleAt(c.start, [&, c](sim::SimTime t) {
      if (cfg.contactLossRate > 0.0 && lossRng.bernoulli(cfg.contactLossRate)) return;
      if (filter && !filter(c.a, c.b, t)) return;
      const auto budget = std::max<std::uint64_t>(
          cfg.minContactBudgetBytes,
          static_cast<std::uint64_t>(std::llround(c.duration * cfg.bandwidthBytesPerSec)));
      out.push_back({c.a, c.b, t, c.duration, budget});
    });
  }
  s.runUntil(runUntil);
  return out;
}

std::vector<Delivery> cursorRun(const trace::ContactTrace& trace, const NetworkConfig& cfg,
                                sim::SimTime startAt, sim::SimTime runUntil,
                                const Network::ContactFilter& filter,
                                std::size_t* peakPending = nullptr) {
  sim::Simulator s;
  s.runUntil(startAt);
  Network net(s, trace, cfg);
  if (filter) net.setContactFilter(filter);
  std::vector<Delivery> out;
  net.start([&](NodeId a, NodeId b, sim::SimTime t, sim::SimTime dur, ContactChannel& ch) {
    out.push_back({a, b, t, dur, ch.remainingBytes()});
  });
  s.runUntil(runUntil);
  if (peakPending != nullptr) *peakPending = s.peakPendingEvents();
  return out;
}

TEST(ContactCursor, MatchesEagerFanoutPlain) {
  const auto trace = syntheticTrace(11);
  ASSERT_GT(trace.contacts().size(), 100u);
  NetworkConfig cfg;
  const auto expect = eagerReference(trace, cfg, 0.0, sim::hours(7), nullptr);
  const auto got = cursorRun(trace, cfg, 0.0, sim::hours(7), nullptr);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(got.size(), trace.contacts().size());
}

TEST(ContactCursor, MatchesEagerFanoutUnderLoss) {
  const auto trace = syntheticTrace(12);
  NetworkConfig cfg;
  cfg.contactLossRate = 0.3;
  cfg.lossSeed = 99;
  const auto expect = eagerReference(trace, cfg, 0.0, sim::hours(7), nullptr);
  const auto got = cursorRun(trace, cfg, 0.0, sim::hours(7), nullptr);
  EXPECT_EQ(got, expect);
  EXPECT_LT(got.size(), trace.contacts().size());  // some contacts actually lost
  EXPECT_GT(got.size(), 0u);
}

TEST(ContactCursor, MatchesEagerFanoutUnderFilterAndLoss) {
  const auto trace = syntheticTrace(13);
  NetworkConfig cfg;
  cfg.contactLossRate = 0.1;
  // Suppress any contact touching node 3 — and prove suppression happens
  // AFTER the loss draw, so the Rng stream stays aligned with the eager
  // reference (the old code drew loss first too).
  const Network::ContactFilter filter = [](NodeId a, NodeId b, sim::SimTime) {
    return a != 3 && b != 3;
  };
  const auto expect = eagerReference(trace, cfg, 0.0, sim::hours(7), filter);
  const auto got = cursorRun(trace, cfg, 0.0, sim::hours(7), filter);
  EXPECT_EQ(got, expect);
  for (const auto& d : got) {
    EXPECT_NE(d.a, 3u);
    EXPECT_NE(d.b, 3u);
  }
}

TEST(ContactCursor, MatchesEagerFanoutWithWarmupTruncation) {
  // start() after the simulator has already advanced: the past prefix of
  // the trace is skipped identically on both sides.
  const auto trace = syntheticTrace(14);
  NetworkConfig cfg;
  const sim::SimTime warmup = sim::hours(2);
  const auto expect = eagerReference(trace, cfg, warmup, sim::hours(7), nullptr);
  const auto got = cursorRun(trace, cfg, warmup, sim::hours(7), nullptr);
  EXPECT_EQ(got, expect);
  EXPECT_LT(got.size(), trace.contacts().size());
  EXPECT_GT(got.size(), 0u);
}

TEST(ContactCursor, ForeignEventAtSameTimeStillFiresAfterContact) {
  // With the eager fan-out, every contact event was scheduled inside
  // start(), so a protocol timer scheduled AFTER start() for the same
  // instant fired after the contact. Reserved sequence ranks must preserve
  // exactly that, even though the cursor physically schedules contact i
  // only when contact i-1 fires.
  std::vector<trace::Contact> cs = {{10.0, 1.0, 0, 1}, {20.0, 1.0, 1, 2}};
  trace::ContactTrace trace(3, std::move(cs));
  sim::Simulator s;
  Network net(s, trace);
  std::vector<int> order;
  net.start([&](NodeId, NodeId, sim::SimTime, sim::SimTime, ContactChannel&) {
    order.push_back(0);
  });
  s.scheduleAt(20.0, [&](sim::SimTime) { order.push_back(1); });  // ties contact #2
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1}));
}

TEST(ContactCursor, PendingSetStaysFlatDuringReplay) {
  const auto trace = syntheticTrace(15);
  ASSERT_GT(trace.contacts().size(), 500u);
  std::size_t peak = 0;
  cursorRun(trace, NetworkConfig{}, 0.0, sim::hours(7), nullptr, &peak);
  // One cursor event live at a time (plus transient bookkeeping) — nowhere
  // near the O(#contacts) the eager fan-out held pending.
  EXPECT_LE(peak, 4u);
}

/// A foreign-event mix on both kernels: a periodic series, a one-shot at a
/// contact instant scheduled before start(), and zero-delay and delayed
/// follow-ups scheduled from inside contact callbacks. Returns the merged
/// firing log ("c<i>" for the i-th delivered contact, "p", "o", "f<i>",
/// "d<i>"), run as runUntil chunks whose bounds fall on contact instants.
std::vector<std::string> timerMixRun(const trace::ContactTrace& trace, bool eager,
                                     const std::vector<sim::SimTime>& bounds) {
  sim::Simulator s;
  std::vector<std::string> log;
  const sim::SimTime tie = trace.contacts()[trace.contacts().size() / 2].start;
  s.scheduleAt(tie, [&](sim::SimTime) { log.push_back("o"); });
  s.schedulePeriodic(sim::minutes(30), [&](sim::SimTime) { log.push_back("p"); });
  // Entries are built by appending to a std::string: GCC 12's -Wrestrict
  // misfires on `"c" + std::to_string(i)` in optimized builds.
  const auto entry = [](char kind, std::size_t i) {
    std::string e(1, kind);
    e += std::to_string(i);
    return e;
  };
  std::size_t delivered = 0;
  auto onContact = [&](sim::SimTime) {
    const std::size_t i = delivered++;
    log.push_back(entry('c', i));
    if (i % 7 == 0) s.scheduleAfter(0.0, [&, i](sim::SimTime) {
      log.push_back(entry('f', i));
    });
    if (i % 11 == 0) s.scheduleAfter(45.0, [&, i](sim::SimTime) {
      log.push_back(entry('d', i));
    });
  };
  Network net(s, trace);
  if (eager) {
    for (const auto& c : trace.contacts())
      s.scheduleAt(c.start, [&](sim::SimTime t) { onContact(t); });
  } else {
    net.start([&](NodeId, NodeId, sim::SimTime t, sim::SimTime, ContactChannel&) {
      onContact(t);
    });
  }
  for (const sim::SimTime u : bounds) s.runUntil(u);
  return log;
}

TEST(ContactCursor, MatchesEagerFanoutWithTimersAndChunkedRuns) {
  const auto trace = syntheticTrace(16);
  const auto& cs = trace.contacts();
  ASSERT_GT(cs.size(), 200u);
  // Chunk bounds exactly on contact instants, between them, and past the end.
  const std::vector<sim::SimTime> bounds = {cs[10].start, cs[10].start + 1e-3, cs[57].start,
                                            cs[cs.size() / 2].start, sim::hours(5),
                                            sim::hours(7)};
  const auto expect = timerMixRun(trace, true, bounds);
  const auto got = timerMixRun(trace, false, bounds);
  EXPECT_EQ(got, expect);
  EXPECT_GT(got.size(), cs.size());
}

TEST(ContactCursor, EventScheduledBeforeStartFiresBeforeSameInstantContact) {
  std::vector<trace::Contact> cs = {{10.0, 1.0, 0, 1}, {20.0, 1.0, 1, 2}};
  trace::ContactTrace trace(3, std::move(cs));
  sim::Simulator s;
  std::vector<int> order;
  s.scheduleAt(20.0, [&](sim::SimTime) { order.push_back(1); });  // before start()
  Network net(s, trace);
  net.start([&](NodeId, NodeId, sim::SimTime, sim::SimTime, ContactChannel&) {
    order.push_back(0);
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

TEST(ContactCursor, EventScheduledInCallbackFiresAfterRemainingSameInstantContacts) {
  // Three contacts share t = 10. The first one's callback schedules a
  // zero-delay follow-up: it ranks after every contact reserved at start(),
  // so both remaining same-instant contacts run first.
  std::vector<trace::Contact> cs = {
      {10.0, 1.0, 0, 1}, {10.0, 1.0, 1, 2}, {10.0, 1.0, 2, 3}, {11.0, 1.0, 0, 3}};
  trace::ContactTrace trace(4, std::move(cs));
  sim::Simulator s;
  Network net(s, trace);
  std::vector<std::string> order;
  net.start([&](NodeId a, NodeId b, sim::SimTime t, sim::SimTime, ContactChannel&) {
    order.push_back(std::to_string(a) + std::to_string(b));
    if (order.size() == 1)
      s.scheduleAfter(0.0, [&order, t](sim::SimTime at) {
        EXPECT_EQ(at, t);
        order.push_back("f");
      });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"01", "12", "23", "f", "03"}));
}

TEST(ContactCursor, RunUntilDeliversBoundaryContactAndResumes) {
  std::vector<trace::Contact> cs = {{10.0, 1.0, 0, 1}, {20.0, 1.0, 1, 2}, {30.0, 1.0, 0, 2}};
  trace::ContactTrace trace(3, std::move(cs));
  sim::Simulator s;
  Network net(s, trace);
  std::vector<sim::SimTime> seen;
  net.start([&](NodeId, NodeId, sim::SimTime t, sim::SimTime, ContactChannel&) {
    seen.push_back(t);
  });
  s.runUntil(20.0);  // the contact at exactly 20 is delivered
  EXPECT_EQ(seen, (std::vector<sim::SimTime>{10.0, 20.0}));
  EXPECT_EQ(s.now(), 20.0);
  EXPECT_EQ(s.pendingEvents(), 1u);  // the rest of the stream
  s.runUntil(29.5);  // stops before the contact at 30
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(s.now(), 29.5);
  s.runUntil(40.0);  // resumes it
  EXPECT_EQ(seen, (std::vector<sim::SimTime>{10.0, 20.0, 30.0}));
  EXPECT_EQ(s.pendingEvents(), 0u);
  EXPECT_EQ(s.eventsProcessed(), 3u);
}

TEST(ContactCursor, KernelCountsMatchTheCursor) {
  // Exact values the self-rescheduling cursor event produced on this
  // scenario: the stream counts as one pending event while non-empty, and
  // each delivered contact as one processed event.
  const auto trace = syntheticTrace(17);
  sim::Simulator s;
  s.schedulePeriodic(sim::minutes(20), [](sim::SimTime) {});
  Network net(s, trace);
  std::size_t pendingSum = 0;
  std::size_t calls = 0;
  net.start([&](NodeId, NodeId, sim::SimTime, sim::SimTime, ContactChannel&) {
    pendingSum += s.pendingEvents();
    if (calls++ % 5 == 0) s.scheduleAfter(sim::minutes(3), [](sim::SimTime) {});
  });
  s.runUntil(sim::hours(3));
  const std::size_t midPending = s.pendingEvents();
  const std::uint64_t midProcessed = s.eventsProcessed();
  s.runUntil(sim::hours(7));
  EXPECT_EQ(calls, 1152u);
  EXPECT_EQ(pendingSum, 6450u);  // as seen from inside the contact callbacks
  EXPECT_EQ(midPending, 3u);
  EXPECT_EQ(midProcessed, 229u);
  EXPECT_EQ(s.eventsProcessed(), 1404u);
  EXPECT_EQ(s.peakPendingEvents(), 10u);
  EXPECT_EQ(s.pendingEvents(), 1u);  // the periodic series
}

}  // namespace
}  // namespace dtncache::net
