#include "peer/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "sim/assert.hpp"

namespace dtncache::peer {

namespace {
void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DTNCACHE_CHECK(flags >= 0);
  DTNCACHE_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}
}  // namespace

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {
  DTNCACHE_CHECK_MSG(::pipe(wakePipe_) == 0, "self-pipe creation failed");
  setNonBlocking(wakePipe_[0]);
  setNonBlocking(wakePipe_[1]);
}

EventLoop::~EventLoop() {
  ::close(wakePipe_[0]);
  ::close(wakePipe_[1]);
}

void EventLoop::addFd(int fd, std::uint32_t interest, FdCallback callback) {
  DTNCACHE_CHECK_MSG(fds_.count(fd) == 0, "fd already registered");
  fds_[fd] = FdEntry{interest, std::move(callback), nextFdGeneration_++};
}

void EventLoop::setInterest(int fd, std::uint32_t interest) {
  const auto it = fds_.find(fd);
  DTNCACHE_CHECK_MSG(it != fds_.end(), "setInterest on unregistered fd");
  it->second.interest = interest;
}

void EventLoop::removeFd(int fd) { fds_.erase(fd); }

EventLoop::TimerId EventLoop::runAfter(double delaySeconds, TimerCallback callback) {
  const TimerId id = nextTimerId_++;
  timers_[id] = std::move(callback);
  timerHeap_.push(TimerEntry{now() + std::max(delaySeconds, 0.0), id});
  return id;
}

void EventLoop::cancelTimer(TimerId id) { timers_.erase(id); }

double EventLoop::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void EventLoop::wakeup() {
  const char byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wakePipe_[1], &byte, 1);
}

void EventLoop::dispatchTimers() {
  const double t = now();
  while (!timerHeap_.empty() && timerHeap_.top().deadline <= t) {
    const TimerEntry entry = timerHeap_.top();
    timerHeap_.pop();
    const auto it = timers_.find(entry.id);
    if (it == timers_.end()) continue;  // cancelled; heap entry was stale
    TimerCallback cb = std::move(it->second);
    timers_.erase(it);
    cb();
  }
}

timespec pollTimeout(std::optional<double> secondsToDeadline) {
  if (!secondsToDeadline) return timespec{0, 250'000'000};  // idle tick so stop() is honored
  const double delta = *secondsToDeadline;
  if (!(delta > 0.0)) return timespec{0, 0};
  if (delta >= 60.0) return timespec{60, 0};
  const auto ns = static_cast<std::int64_t>(std::ceil(delta * 1e9));
  return timespec{static_cast<std::time_t>(ns / 1'000'000'000),
                  static_cast<long>(ns % 1'000'000'000)};
}

void EventLoop::run() {
  running_ = true;
  std::vector<pollfd> pollSet;
  std::vector<std::uint64_t> pollGens;
  std::vector<int> readyFds;
  std::vector<std::uint32_t> readyEvents;
  std::vector<std::uint64_t> readyGens;
  while (running_) {
    dispatchTimers();
    if (!running_) break;

    pollSet.clear();
    pollGens.clear();
    pollSet.push_back(pollfd{wakePipe_[0], POLLIN, 0});
    pollGens.push_back(0);
    for (const auto& [fd, entry] : fds_) {
      short events = 0;
      if (entry.interest & kReadable) events |= POLLIN;
      if (entry.interest & kWritable) events |= POLLOUT;
      pollSet.push_back(pollfd{fd, events, 0});
      pollGens.push_back(entry.generation);
    }

    // The heap may hold a cancelled head (cancellation is lazy); it only
    // costs one early return.
    const timespec timeout = pollTimeout(
        timerHeap_.empty() ? std::nullopt
                           : std::optional<double>(timerHeap_.top().deadline - now()));
    const int rc = ::ppoll(pollSet.data(), pollSet.size(), &timeout, nullptr);
    if (rc < 0) {
      DTNCACHE_CHECK_MSG(errno == EINTR, "ppoll failed: errno " << errno);
      continue;
    }

    if (pollSet[0].revents & POLLIN) {  // drain the self-pipe
      char buf[64];
      while (::read(wakePipe_[0], buf, sizeof buf) > 0) {
      }
    }

    // Collect first, then dispatch: a callback may add or remove fds, and
    // the registration map is the source of truth for still-live entries.
    readyFds.clear();
    readyEvents.clear();
    readyGens.clear();
    for (std::size_t i = 1; i < pollSet.size(); ++i) {
      if (pollSet[i].revents == 0) continue;
      std::uint32_t events = 0;
      if (pollSet[i].revents & (POLLIN | POLLPRI)) events |= kReadable;
      if (pollSet[i].revents & POLLOUT) events |= kWritable;
      if (pollSet[i].revents & (POLLERR | POLLHUP | POLLNVAL)) events |= kError;
      readyFds.push_back(pollSet[i].fd);
      readyEvents.push_back(events);
      readyGens.push_back(pollGens[i]);
    }
    for (std::size_t i = 0; i < readyFds.size(); ++i) {
      if (!running_) break;
      const auto it = fds_.find(readyFds[i]);
      if (it == fds_.end()) continue;  // removed by an earlier callback
      // Same fd number, different registration: an earlier callback closed
      // the polled fd and a new descriptor reused its number. The collected
      // readiness belongs to the old socket — drop it.
      if (it->second.generation != readyGens[i]) continue;
      // Copy the callback: the entry may be erased (session close) while
      // the callback is still on the stack.
      FdCallback cb = it->second.callback;
      cb(readyEvents[i]);
    }
  }
}

}  // namespace dtncache::peer
