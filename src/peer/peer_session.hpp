#pragma once

/// \file peer_session.hpp
/// One TCP connection between two peer daemons: non-blocking connect /
/// accept, stream reassembly into wire frames, and a FIFO of encoded
/// outbound frames — the live-transport counterpart of one simulated
/// contact.
///
/// Lifecycle: kConnecting (outbound only) → kHelloWait (both sides send a
/// Hello immediately) → kEstablished (hellos validated; version vectors
/// and pushes may flow) → kClosed. Closing is idempotent and always ends
/// in exactly one Handler::onClosed call; the handler may destroy the
/// session from inside that callback *only* via deferred deletion (the
/// daemon parks closed sessions in a graveyard drained from a timer),
/// because the close may be reported from inside the session's own fd
/// callback.
///
/// The outbound queue holds each encoded frame as its own buffer until the
/// socket has taken all of it; TCP backpressure is handled by the write
/// interest, not by a byte cap. A malformed inbound stream (decodeFrame
/// kReject) closes the session — length framing is unrecoverable — and is
/// reported with `wasReject = true` so the daemon can count it.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "peer/event_loop.hpp"
#include "peer/wire.hpp"
#include "trace/contact.hpp"

namespace dtncache::peer {

class PeerSession {
 public:
  struct Config {
    NodeId localNode = 0;
    std::uint32_t nodeCount = 0;
    std::uint32_t itemCount = 0;
    double helloTimeoutSeconds = 5.0;  ///< connect + hello exchange deadline
    double idleTimeoutSeconds = 30.0;  ///< no-frame deadline once established
  };

  /// Daemon-side hooks. All calls happen on the event-loop thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// Hellos exchanged and validated; frames may now be sent.
    virtual void onEstablished(PeerSession& session) = 0;
    /// One decoded frame (never Hello — the session consumes those).
    virtual void onFrame(PeerSession& session, const FrameBody& frame) = 0;
    /// Terminal; exactly once. `wasReject` = closed on a malformed frame.
    virtual void onClosed(PeerSession& session, const char* reason, bool wasReject) = 0;
  };

  PeerSession(EventLoop& loop, Handler& handler, Config config);
  ~PeerSession();
  PeerSession(const PeerSession&) = delete;
  PeerSession& operator=(const PeerSession&) = delete;

  /// Start an outbound connection (non-blocking). Failure to even create
  /// the socket reports through onClosed.
  void connectTo(const std::string& host, std::uint16_t port);

  /// Take ownership of an accepted fd (made non-blocking here).
  void adopt(int fd);

  /// Queue one frame (encoded immediately) and arm the write path.
  void sendFrame(const FrameBody& frame);

  /// Idempotent close; fires onClosed on the first call.
  void close(const char* reason) { closeInternal(reason, false); }

  bool established() const { return state_ == State::kEstablished; }
  bool closed() const { return state_ == State::kClosed; }
  /// Peer identity from its Hello (kNoNode before the handshake).
  NodeId peerNode() const { return peerNode_; }
  bool outbound() const { return outbound_; }

 private:
  enum class State : std::uint8_t { kIdle, kConnecting, kHelloWait, kEstablished, kClosed };

  void startHandshake();  ///< send our Hello, move to kHelloWait
  void handleIo(std::uint32_t events);
  bool handleReadable();  ///< false when the session closed underneath
  bool handleWritable();
  bool processFrames();
  bool consumeHello(const FrameBody& frame);
  void updateInterest();
  void armHelloTimer();
  void armIdleTimer();
  void closeInternal(const char* reason, bool wasReject);

  EventLoop& loop_;
  Handler& handler_;
  Config config_;
  int fd_ = -1;
  State state_ = State::kIdle;
  bool outbound_ = false;
  NodeId peerNode_;
  std::vector<std::uint8_t> readBuffer_;
  std::deque<std::vector<std::uint8_t>> writeQueue_;  ///< encoded frames, FIFO
  std::size_t writeOffset_ = 0;  ///< bytes of the head frame already sent
  EventLoop::TimerId helloTimer_ = 0;
  EventLoop::TimerId idleTimer_ = 0;
};

}  // namespace dtncache::peer
