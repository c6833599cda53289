#include "peer/peer_session.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "sim/assert.hpp"

namespace dtncache::peer {

namespace {
bool setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}
}  // namespace

PeerSession::PeerSession(EventLoop& loop, Handler& handler, Config config)
    : loop_(loop), handler_(handler), config_(config), peerNode_(kNoNode) {}

PeerSession::~PeerSession() {
  if (fd_ >= 0) {
    if (loop_.hasFd(fd_)) loop_.removeFd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  loop_.cancelTimer(helloTimer_);
  loop_.cancelTimer(idleTimer_);
}

void PeerSession::connectTo(const std::string& host, std::uint16_t port) {
  DTNCACHE_CHECK(state_ == State::kIdle);
  outbound_ = true;

  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0 || !setNonBlocking(fd_)) {
    closeInternal("socket setup failed", false);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    closeInternal("bad peer address", false);
    return;
  }

  const int rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc == 0) {
    startHandshake();
    return;
  }
  if (errno != EINPROGRESS) {
    closeInternal("connect failed", false);
    return;
  }
  state_ = State::kConnecting;
  loop_.addFd(fd_, kWritable, [this](std::uint32_t events) { handleIo(events); });
  armHelloTimer();
}

void PeerSession::adopt(int fd) {
  DTNCACHE_CHECK(state_ == State::kIdle);
  fd_ = fd;
  if (!setNonBlocking(fd_)) {
    closeInternal("socket setup failed", false);
    return;
  }
  loop_.addFd(fd_, kReadable, [this](std::uint32_t events) { handleIo(events); });
  startHandshake();
}

void PeerSession::startHandshake() {
  state_ = State::kHelloWait;
  if (!loop_.hasFd(fd_))
    loop_.addFd(fd_, kReadable, [this](std::uint32_t events) { handleIo(events); });
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  armHelloTimer();
  sendFrame(Hello{config_.localNode, config_.nodeCount, config_.itemCount});
}

void PeerSession::sendFrame(const FrameBody& frame) {
  if (state_ == State::kClosed) return;
  writeQueue_.push_back(encodeFrame(frame));
  // Try an eager flush: most frames fit the socket buffer, and waiting for
  // the next poll round would add latency for nothing.
  if (state_ != State::kConnecting && !handleWritable()) return;
  updateInterest();
}

void PeerSession::handleIo(std::uint32_t events) {
  if (state_ == State::kClosed) return;

  if (state_ == State::kConnecting) {
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0 ||
        (events & kError) != 0) {
      closeInternal("connect failed", false);
      return;
    }
    startHandshake();
    if (state_ == State::kClosed) return;
    updateInterest();
    return;
  }

  if (events & kError) {
    closeInternal("socket error", false);
    return;
  }
  if ((events & kWritable) != 0 && !handleWritable()) return;
  if ((events & kReadable) != 0 && !handleReadable()) return;
  updateInterest();
}

bool PeerSession::handleReadable() {
  std::uint8_t chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      readBuffer_.insert(readBuffer_.end(), chunk, chunk + n);
      if (!processFrames()) return false;
      continue;
    }
    if (n == 0) {
      closeInternal("peer closed connection", false);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    closeInternal("read error", false);
    return false;
  }
}

bool PeerSession::processFrames() {
  std::size_t offset = 0;
  while (offset < readBuffer_.size()) {
    const DecodeResult r = decodeFrame(readBuffer_.data() + offset,
                                       readBuffer_.size() - offset);
    if (r.status == DecodeStatus::kNeedMore) break;
    if (r.status == DecodeStatus::kReject) {
      closeInternal(r.error, true);
      return false;
    }
    offset += r.consumed;
    armIdleTimer();

    const FrameBody& frame = *r.frame;
    if (state_ == State::kHelloWait) {
      if (!consumeHello(frame)) return false;
      continue;
    }
    if (std::holds_alternative<Hello>(frame)) {
      closeInternal("unexpected second hello", true);
      return false;
    }
    handler_.onFrame(*this, frame);
    if (state_ == State::kClosed) return false;
  }
  readBuffer_.erase(readBuffer_.begin(),
                    readBuffer_.begin() + static_cast<std::ptrdiff_t>(offset));
  return true;
}

bool PeerSession::consumeHello(const FrameBody& frame) {
  const Hello* hello = std::get_if<Hello>(&frame);
  if (hello == nullptr) {
    closeInternal("first frame was not a hello", true);
    return false;
  }
  if (hello->itemCount != config_.itemCount || hello->nodeCount != config_.nodeCount) {
    closeInternal("hello catalog mismatch", false);
    return false;
  }
  if (hello->node >= config_.nodeCount || hello->node == config_.localNode) {
    closeInternal("hello with invalid node id", false);
    return false;
  }
  peerNode_ = hello->node;
  state_ = State::kEstablished;
  loop_.cancelTimer(helloTimer_);
  helloTimer_ = 0;
  armIdleTimer();
  handler_.onEstablished(*this);
  return state_ != State::kClosed;
}

bool PeerSession::handleWritable() {
  while (!writeQueue_.empty()) {
    const std::vector<std::uint8_t>& head = writeQueue_.front();
    const ssize_t n = ::send(fd_, head.data() + writeOffset_, head.size() - writeOffset_,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      closeInternal("write error", false);
      return false;
    }
    writeOffset_ += static_cast<std::size_t>(n);
    if (writeOffset_ == head.size()) {
      writeQueue_.pop_front();
      writeOffset_ = 0;
    }
  }
  return true;
}

void PeerSession::updateInterest() {
  if (state_ == State::kClosed || fd_ < 0 || !loop_.hasFd(fd_)) return;
  std::uint32_t interest = kReadable;
  if (!writeQueue_.empty()) interest |= kWritable;
  loop_.setInterest(fd_, interest);
}

void PeerSession::armHelloTimer() {
  loop_.cancelTimer(helloTimer_);
  helloTimer_ = loop_.runAfter(config_.helloTimeoutSeconds,
                               [this] { closeInternal("handshake timeout", false); });
}

void PeerSession::armIdleTimer() {
  loop_.cancelTimer(idleTimer_);
  idleTimer_ = loop_.runAfter(config_.idleTimeoutSeconds,
                              [this] { closeInternal("idle timeout", false); });
}

void PeerSession::closeInternal(const char* reason, bool wasReject) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  loop_.cancelTimer(helloTimer_);
  loop_.cancelTimer(idleTimer_);
  helloTimer_ = idleTimer_ = 0;
  if (fd_ >= 0) {
    if (loop_.hasFd(fd_)) loop_.removeFd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  handler_.onClosed(*this, reason, wasReject);
}

}  // namespace dtncache::peer
