#pragma once

/// \file network.hpp
/// The opportunistic network: replays a contact trace on the simulator and
/// hands each contact to the protocol stack, with per-contact bandwidth
/// budgets and global transfer accounting.
///
/// A contact of duration d gives the pair a byte budget bandwidth·d (plus a
/// free allowance for the metadata handshake — version vectors are tiny and
/// the paper's schemes all assume summary exchange fits in any contact).
/// The protocol draws on that budget through the ContactChannel; transfers
/// that exceed it fail, which is how short contacts truncate large pushes.

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/contact.hpp"

namespace dtncache::net {

/// Transfer categories for overhead accounting (experiment F6).
enum class Traffic : std::uint8_t {
  kControl = 0,   ///< metadata handshakes (version vectors, rate gossip)
  kRefresh,       ///< refresh pushes of new versions to caching nodes
  kPlacement,     ///< initial cache placement copies
  kQuery,         ///< query forwarding
  kReply,         ///< reply forwarding
  kPull,          ///< pull-request forwarding
  kCategoryCount,
};

constexpr const char* trafficName(Traffic t) {
  switch (t) {
    case Traffic::kControl: return "control";
    case Traffic::kRefresh: return "refresh";
    case Traffic::kPlacement: return "placement";
    case Traffic::kQuery: return "query";
    case Traffic::kReply: return "reply";
    case Traffic::kPull: return "pull";
    default: return "?";
  }
}

struct TrafficCounters {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Network-lifetime transfer totals, by category and by sending node.
/// Per-node counters underpin the load-balance analysis (experiment F10):
/// the hierarchical scheme's fanout bound caps each node's refresh duty,
/// where epidemic/flooding concentrate work on the most mobile nodes.
class TransferLog {
 public:
  TransferLog() = default;
  explicit TransferLog(std::size_t nodeCount)
      : perNodeBytes_(nodeCount, 0), perNodeRefreshBytes_(nodeCount, 0) {}

  void record(Traffic category, std::uint64_t bytes, NodeId sender = kNoNode) {
    auto& c = counters_[static_cast<std::size_t>(category)];
    ++c.messages;
    c.bytes += bytes;
    if (sender != kNoNode && sender < perNodeBytes_.size()) {
      perNodeBytes_[sender] += bytes;
      if (category == Traffic::kRefresh) perNodeRefreshBytes_[sender] += bytes;
    }
  }

  const TrafficCounters& of(Traffic category) const {
    return counters_[static_cast<std::size_t>(category)];
  }

  TrafficCounters total() const {
    TrafficCounters t;
    for (const auto& c : counters_) {
      t.messages += c.messages;
      t.bytes += c.bytes;
    }
    return t;
  }

  /// Bytes sent per node (empty when per-node tracking was not enabled).
  const std::vector<std::uint64_t>& perNodeBytes() const { return perNodeBytes_; }
  const std::vector<std::uint64_t>& perNodeRefreshBytes() const {
    return perNodeRefreshBytes_;
  }

  /// Fold another log's totals into this one (integer sums — order-free).
  /// The sharded kernel records into per-context logs and merges them back.
  void merge(const TransferLog& other) {
    for (std::size_t k = 0; k < counters_.size(); ++k) {
      counters_[k].messages += other.counters_[k].messages;
      counters_[k].bytes += other.counters_[k].bytes;
    }
    for (std::size_t i = 0; i < perNodeBytes_.size() && i < other.perNodeBytes_.size(); ++i) {
      perNodeBytes_[i] += other.perNodeBytes_[i];
      perNodeRefreshBytes_[i] += other.perNodeRefreshBytes_[i];
    }
  }

 private:
  std::array<TrafficCounters, static_cast<std::size_t>(Traffic::kCategoryCount)> counters_{};
  std::vector<std::uint64_t> perNodeBytes_;
  std::vector<std::uint64_t> perNodeRefreshBytes_;
};

class EnergyModel;

/// Byte budget of one live contact. Handed to the protocol for the duration
/// of the onContact callback only.
class ContactChannel {
 public:
  ContactChannel(std::uint64_t budgetBytes, TransferLog& log, NodeId a = kNoNode,
                 NodeId b = kNoNode, EnergyModel* energy = nullptr)
      : remaining_(budgetBytes), log_(log), a_(a), b_(b), energy_(energy) {}

  /// Attempt to transfer `bytes` in category `cat`; returns false (and
  /// transfers nothing) if the contact's budget is exhausted. `sender`
  /// attributes the bytes for per-node load accounting and energy charging
  /// (the receiver is the other contact endpoint).
  bool transfer(Traffic category, std::uint64_t bytes, NodeId sender = kNoNode);

  std::uint64_t remainingBytes() const { return remaining_; }

 private:
  std::uint64_t remaining_;
  TransferLog& log_;
  NodeId a_;
  NodeId b_;
  EnergyModel* energy_;
};

/// Protocol-side view of a contact.
using ContactFn =
    std::function<void(NodeId a, NodeId b, sim::SimTime start, sim::SimTime duration,
                       ContactChannel& channel)>;

struct NetworkConfig {
  /// Link bandwidth in bytes/second (Bluetooth 2.x EDR effective ≈ 200 KB/s).
  double bandwidthBytesPerSec = 200.0 * 1024;
  /// Budget floor so zero-duration trace artifacts still pass metadata.
  std::uint64_t minContactBudgetBytes = 4 * 1024;
  /// Probability an entire contact is unusable (interference, failed
  /// pairing — the dominant Bluetooth failure mode loses the whole
  /// encounter, not individual packets). A failed pairing is never even
  /// observed, so lost contacts are dropped before the protocol layer —
  /// they neither move data nor feed the rate estimator.
  double contactLossRate = 0.0;
  std::uint64_t lossSeed = 12345;
};

class Network : private sim::EventStream {
 public:
  Network(sim::Simulator& simulator, const trace::ContactTrace& trace,
          NetworkConfig config = {});

  /// Install the protocol callback and start streaming the trace: the
  /// time-sorted contact vector attaches to the simulator as an
  /// sim::EventStream, merged against the queue head, so no contact ever
  /// enters the pending-event set (O(active timers), not O(#contacts)).
  /// FIFO ranks for all contacts are reserved upfront, so delivery
  /// interleaves with simultaneous events exactly as the eager per-contact
  /// fan-out did. Must be called exactly once, before the simulator runs.
  void start(ContactFn onContact);

  /// Gate contacts (churn: a powered-off endpoint suppresses the contact).
  /// Evaluated at the contact's start time. May be set before or after
  /// start().
  using ContactFilter = std::function<bool(NodeId a, NodeId b, sim::SimTime t)>;
  void setContactFilter(ContactFilter filter) { filter_ = std::move(filter); }

  /// Attach an energy model (not owned): idle drain advances at each
  /// contact, discovery is charged per delivered contact, and every
  /// ContactChannel transfer charges tx/rx. Combine with a contact filter
  /// on EnergyModel::depleted to make dead nodes disappear.
  void setEnergyModel(EnergyModel* energy) { energy_ = energy; }

  /// Attach the observability layer (neither owned; both may be null).
  /// Contact admission emits `contact` / `contact_suppressed` /
  /// `contact_lost` events — the `contact` event carries the byte budget
  /// and, since it is emitted after the protocol ran, the bytes spent.
  /// Counters: net.contact.{delivered,suppressed,lost}.
  void setObservability(obs::Tracer* tracer, obs::Registry* registry);

  const TransferLog& transfers() const { return log_; }
  std::size_t nodeCount() const { return trace_.nodeCount(); }
  std::size_t contactsDelivered() const { return contactsDelivered_; }
  std::size_t contactsSuppressed() const { return contactsSuppressed_; }
  std::size_t contactsLost() const { return contactsLost_; }

  // ---- sharded delivery (runner/shard_driver) -----------------------------

  /// Route contacts through the sharded kernel: start() still computes the
  /// warm-up skip and reserves every contact's FIFO rank (identical sequence
  /// evolution), but attaches no stream — the driver pulls contacts by
  /// index via deliverSharded(). The one pending slot the stream occupies
  /// in plain mode is accounted through the simulator's pending bias so the
  /// peak-pending statistic stays byte-identical. Call before start().
  void setShardedDelivery(bool on);

  /// Per-context transfer logs and admission counts, entered with worker
  /// threads not yet running. Also pre-draws the per-contact loss decisions
  /// for [firstContactIndex(), trace end) in index order from the same RNG
  /// stream plain delivery consumes, so outcomes match contact for contact.
  void enterShardMode(std::size_t contexts);

  /// Deliver contact `index` on the calling context (sim::tlsShard selects
  /// the transfer log and tracer sink). Same admission pipeline as plain
  /// delivery; requires enterShardMode and no energy model (the driver
  /// falls back to plain delivery for energy runs).
  void deliverSharded(std::size_t index);

  /// Fold per-context logs and counts back; call after workers joined.
  void exitShardMode();

  std::size_t firstContactIndex() const { return firstContact_; }
  sim::EventQueue::Sequence sequenceBase() const { return seqBase_; }
  const trace::ContactTrace& trace() const { return trace_; }

 private:
  // sim::EventStream: stream event k is contact firstContact_ + k.
  sim::SimTime timeAt(std::size_t k) const override {
    return trace_.contacts()[firstContact_ + k].start;
  }
  void fire(std::size_t k, sim::SimTime t) override { deliverContact(firstContact_ + k, t); }

  void deliverContact(std::size_t index, sim::SimTime t);

  sim::Simulator& simulator_;
  const trace::ContactTrace& trace_;
  NetworkConfig config_;
  ContactFn onContact_;
  ContactFilter filter_;
  EnergyModel* energy_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* ctrDelivered_ = nullptr;
  obs::Counter* ctrSuppressed_ = nullptr;
  obs::Counter* ctrLost_ = nullptr;
  TransferLog log_;
  sim::Rng lossRng_;
  std::size_t contactsDelivered_ = 0;
  std::size_t contactsSuppressed_ = 0;
  std::size_t contactsLost_ = 0;
  bool started_ = false;
  std::size_t firstContact_ = 0;  ///< first non-warm-up contact at start()
  sim::EventQueue::Sequence seqBase_ = 0;  ///< FIFO rank of firstContact_

  /// Sharded delivery: per-context admission state (tlsShard-selected).
  struct ShardCtx {
    TransferLog log;
    std::size_t delivered = 0;
    std::size_t suppressed = 0;
    std::size_t lost = 0;
  };
  bool sharded_ = false;
  std::vector<ShardCtx> shardCtxs_;
  /// Pre-drawn loss outcomes for contacts [firstContact_, end), index order.
  std::vector<char> lossLost_;
};

}  // namespace dtncache::net
