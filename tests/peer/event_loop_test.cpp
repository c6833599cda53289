#include "peer/event_loop.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace dtncache::peer {
namespace {

// A pipe with both ends non-blocking, as EventLoop requires.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() {
    EXPECT_EQ(::pipe(fds), 0);
    for (int fd : fds) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int readEnd() const { return fds[0]; }
  int writeEnd() const { return fds[1]; }
};

std::int64_t waitNs(const timespec& ts) {
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

TEST(PollTimeout, SubMillisecondDeadlineWaitsExactly) {
  // poll(2) took whole milliseconds, so this deadline used to wait 1 ms.
  EXPECT_EQ(waitNs(pollTimeout(0.0003)), 300'000);
  EXPECT_EQ(waitNs(pollTimeout(1.0003 - 1.0)), 300'000);
  EXPECT_EQ(waitNs(pollTimeout(1e-9)), 1);
}

TEST(PollTimeout, RoundsUpNeverDown) {
  EXPECT_EQ(waitNs(pollTimeout(0.0010000005)), 1'000'001);
  EXPECT_EQ(waitNs(pollTimeout(0.0010000001)), 1'000'001);
  EXPECT_EQ(waitNs(pollTimeout(0.4e-9)), 1);
  EXPECT_EQ(waitNs(pollTimeout(2.5)), 2'500'000'000);
}

TEST(PollTimeout, DueOrPastDeadlineDoesNotWait) {
  EXPECT_EQ(waitNs(pollTimeout(0.0)), 0);
  EXPECT_EQ(waitNs(pollTimeout(-0.5)), 0);
}

TEST(PollTimeout, IdleTickAndCap) {
  EXPECT_EQ(waitNs(pollTimeout(std::nullopt)), 250'000'000);
  EXPECT_EQ(waitNs(pollTimeout(60.0)), 60'000'000'000);
  EXPECT_EQ(waitNs(pollTimeout(3600.0)), 60'000'000'000);
  const timespec capped = pollTimeout(1e9);
  EXPECT_EQ(capped.tv_sec, 60);
  EXPECT_EQ(capped.tv_nsec, 0);
}

TEST(EventLoop, SubMillisecondTimersNeverFireEarly) {
  // 20 deadlines 0.1–0.86 ms out, 40 µs apart, armed in shuffled order. No
  // upper bound on lateness: host noise can delay any wakeup.
  EventLoop loop;
  constexpr int kTimers = 20;
  std::vector<int> arming(kTimers);
  for (int i = 0; i < kTimers; ++i) arming[i] = i;
  std::shuffle(arming.begin(), arming.end(), std::mt19937(18));
  std::vector<double> deadline(kTimers);
  std::vector<double> firedAt(kTimers, -1.0);
  std::vector<int> order;
  const double base = loop.now();
  for (int i : arming) {
    const double t0 = loop.now();
    const double delay = base + 1e-4 + 4e-5 * i - t0;
    deadline[i] = t0 + delay;
    loop.runAfter(delay, [&, i] {
      firedAt[i] = loop.now();
      order.push_back(i);
      if (static_cast<int>(order.size()) == kTimers) loop.stop();
    });
  }
  loop.runAfter(1.0, [&] { loop.stop(); });  // failure backstop
  loop.run();
  ASSERT_EQ(static_cast<int>(order.size()), kTimers);
  for (int i = 0; i < kTimers; ++i) {
    EXPECT_EQ(order[i], i) << "fired out of deadline order";
    EXPECT_GE(firedAt[i], deadline[i]) << "timer " << i << " fired early";
  }
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.runAfter(0.02, [&] { order.push_back(2); });
  loop.runAfter(0.03, [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.runAfter(0.01, [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  bool fired = false;
  const EventLoop::TimerId id = loop.runAfter(0.01, [&] { fired = true; });
  loop.cancelTimer(id);
  loop.runAfter(0.03, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, TimerCallbackMayArmAnotherTimer) {
  EventLoop loop;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks == 3) {
      loop.stop();
      return;
    }
    loop.runAfter(0.005, tick);
  };
  loop.runAfter(0.005, tick);
  loop.run();
  EXPECT_EQ(ticks, 3);
}

TEST(EventLoop, ReadableFdDispatches) {
  EventLoop loop;
  Pipe pipe;
  std::string received;
  loop.addFd(pipe.readEnd(), kReadable, [&](std::uint32_t events) {
    EXPECT_TRUE(events & kReadable);
    char buf[16];
    const ssize_t n = ::read(pipe.readEnd(), buf, sizeof buf);
    ASSERT_GT(n, 0);
    received.assign(buf, static_cast<std::size_t>(n));
    loop.stop();
  });
  ASSERT_EQ(::write(pipe.writeEnd(), "ping", 4), 4);
  loop.runAfter(1.0, [&] { loop.stop(); });  // failure backstop
  loop.run();
  EXPECT_EQ(received, "ping");
}

TEST(EventLoop, InterestMaskGatesDispatch) {
  EventLoop loop;
  Pipe pipe;
  int readableHits = 0;
  // Register with no read interest: data sitting in the pipe must not
  // call back until the mask is widened.
  loop.addFd(pipe.readEnd(), 0, [&](std::uint32_t) { ++readableHits; });
  ASSERT_EQ(::write(pipe.writeEnd(), "x", 1), 1);
  loop.runAfter(0.02, [&] {
    EXPECT_EQ(readableHits, 0);
    loop.setInterest(pipe.readEnd(), kReadable);
  });
  loop.runAfter(0.05, [&] { loop.stop(); });
  loop.run();
  EXPECT_GE(readableHits, 1);
  loop.removeFd(pipe.readEnd());
  EXPECT_FALSE(loop.hasFd(pipe.readEnd()));
}

TEST(EventLoop, CallbackMayRemoveItsOwnFd) {
  EventLoop loop;
  Pipe pipe;
  int hits = 0;
  loop.addFd(pipe.readEnd(), kReadable, [&](std::uint32_t) {
    ++hits;
    char buf[4];
    (void)!::read(pipe.readEnd(), buf, sizeof buf);
    loop.removeFd(pipe.readEnd());
  });
  ASSERT_EQ(::write(pipe.writeEnd(), "a", 1), 1);
  loop.runAfter(0.05, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(loop.hasFd(pipe.readEnd()));
}

TEST(EventLoop, StaleReadinessIsNotDispatchedToAReusedFd) {
  // Both pipes are ready in the same poll round. The first callback closes
  // the second pipe's read fd and immediately re-registers a fresh
  // descriptor that reuses the same fd number; the readiness collected for
  // the dead socket must not be dispatched to the new registration.
  EventLoop loop;
  Pipe first;
  Pipe second;
  ASSERT_LT(first.readEnd(), second.readEnd());  // dispatch order: first, second
  int staleHits = 0;
  int oldHits = 0;
  int reusedFd = -1;
  loop.addFd(second.readEnd(), kReadable, [&](std::uint32_t) { ++oldHits; });
  loop.addFd(first.readEnd(), kReadable, [&](std::uint32_t) {
    char buf[8];
    (void)!::read(first.readEnd(), buf, sizeof buf);
    const int victim = second.readEnd();
    loop.removeFd(victim);
    ::close(victim);
    second.fds[0] = -1;
    reusedFd = ::dup(first.readEnd());  // lowest free fd: the one just closed
    ASSERT_EQ(reusedFd, victim);
    loop.addFd(reusedFd, kReadable, [&](std::uint32_t) { ++staleHits; });
  });
  ASSERT_EQ(::write(first.writeEnd(), "a", 1), 1);
  ASSERT_EQ(::write(second.writeEnd(), "b", 1), 1);
  loop.runAfter(0.05, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(staleHits, 0);  // stale readiness must not reach the new fd
  EXPECT_EQ(oldHits, 0);    // the removed registration must not fire either
  if (reusedFd >= 0) {
    loop.removeFd(reusedFd);
    ::close(reusedFd);
  }
}

TEST(EventLoop, NowIsMonotonicAcrossTimers) {
  EventLoop loop;
  const double before = loop.now();
  double atTimer = -1.0;
  loop.runAfter(0.01, [&] {
    atTimer = loop.now();
    loop.stop();
  });
  loop.run();
  EXPECT_GE(atTimer, before + 0.01 - 1e-9);
}

TEST(EventLoop, StopPlusWakeupInterruptsLongPoll) {
  // The shutdown path a signal handler takes: stop() then wakeup() from
  // outside the loop thread, while poll() is parked on a distant timer.
  EventLoop loop;
  bool fired = false;
  loop.runAfter(30.0, [&] { fired = true; });
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    loop.stop();
    loop.wakeup();
  });
  const auto start = std::chrono::steady_clock::now();
  loop.run();
  stopper.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(loop.stopped());
  EXPECT_LT(elapsed, 5.0);  // returned via wakeup, not the 30 s timer
}

}  // namespace
}  // namespace dtncache::peer
