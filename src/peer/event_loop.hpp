#pragma once

/// \file event_loop.hpp
/// A ppoll(2) reactor for the peer daemon: non-blocking fd readiness
/// callbacks plus a monotonic-clock timer heap, single-threaded.
///
/// ppoll over epoll on purpose: a peer daemon talks to a handful of
/// neighbors (opportunistic contacts, not a datacenter fan-in), so the
/// O(fds) scan is noise while the poll family stays trivially correct.
/// The interest set is rebuilt from the registration table each iteration
/// — callbacks may add/remove fds freely, including their own.
///
/// Timers use CLOCK_MONOTONIC via steady_clock; `now()` is seconds since
/// loop construction, which the daemon uses as its trace timestamp so a
/// live trace reads like a simulation trace starting at t = 0. The wait
/// is a nanosecond timespec (see pollTimeout), so a timer fires as soon
/// after its deadline as the kernel's timer slack allows (tens of µs),
/// not on the next whole millisecond as a poll(2) timeout would round it.
/// Every daemon timer inherits that precision: the bump, version-vector,
/// query and maintenance ticks, redial backoff, hello and idle timeouts.
///
/// `wakeup()` is the only async-signal-safe entry point: it writes one
/// byte to a self-pipe, so a signal handler can nudge the loop out of
/// ppoll() and into a clean shutdown. ppoll runs with a null signal mask,
/// so signals are delivered exactly as under poll.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <vector>

namespace dtncache::peer {

/// Readiness bits passed to fd callbacks (and accepted as interest).
inline constexpr std::uint32_t kReadable = 1u << 0;
inline constexpr std::uint32_t kWritable = 1u << 1;
/// Error/hangup — always delivered, never part of the interest mask.
inline constexpr std::uint32_t kError = 1u << 2;

/// The ppoll wait for a loop whose earliest armed timer is due in
/// `secondsToDeadline` (nullopt when no timer is armed). Rounded *up* to
/// the next whole nanosecond, so the loop never wakes before the deadline
/// only to find nothing due; a due or past deadline waits zero. No armed
/// timer waits a 250 ms idle tick, so stop() is honored; any wait is
/// capped at 60 s.
timespec pollTimeout(std::optional<double> secondsToDeadline);

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` (must be non-blocking; not already registered).
  void addFd(int fd, std::uint32_t interest, FdCallback callback);
  /// Change the interest mask of a registered fd.
  void setInterest(int fd, std::uint32_t interest);
  /// Deregister. Safe from inside the fd's own callback; the loop skips
  /// pending readiness for removed fds. Does not close the fd.
  void removeFd(int fd);
  bool hasFd(int fd) const { return fds_.count(fd) != 0; }

  /// One-shot timer `delaySeconds` from now; returns an id for cancel.
  TimerId runAfter(double delaySeconds, TimerCallback callback);
  void cancelTimer(TimerId id);

  /// Seconds since loop construction (monotonic).
  double now() const;

  /// Run until stop(). Dispatches expired timers, then fd readiness.
  void run();
  /// Request run() to return after the current iteration. Safe from a
  /// signal handler (atomic store) — pair with wakeup() there so the loop
  /// leaves ppoll() promptly.
  void stop() { running_.store(false, std::memory_order_relaxed); }
  bool stopped() const { return !running_.load(std::memory_order_relaxed); }

  /// Async-signal-safe: make ppoll() return immediately.
  void wakeup();

 private:
  struct FdEntry {
    std::uint32_t interest = 0;
    FdCallback callback;
    /// Registration stamp: fd numbers are reused by the kernel, so a
    /// callback that closes one fd can see the same number re-registered
    /// (for a brand-new socket) within the same poll round. Readiness
    /// collected for the old registration must not be dispatched to the
    /// new one; the dispatch loop compares this stamp.
    std::uint64_t generation = 0;
  };
  struct TimerEntry {
    double deadline = 0.0;
    TimerId id = 0;
    bool operator>(const TimerEntry& other) const {
      return deadline != other.deadline ? deadline > other.deadline : id > other.id;
    }
  };

  void dispatchTimers();

  std::chrono::steady_clock::time_point epoch_;
  std::map<int, FdEntry> fds_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<TimerEntry>>
      timerHeap_;
  std::map<TimerId, TimerCallback> timers_;  ///< cancel = erase; heap is lazy
  TimerId nextTimerId_ = 1;
  std::uint64_t nextFdGeneration_ = 1;
  int wakePipe_[2] = {-1, -1};
  std::atomic<bool> running_{false};
};

}  // namespace dtncache::peer
