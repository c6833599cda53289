#pragma once

/// \file forwarding.hpp
/// Utility-based multi-copy forwarding primitives (spray + compare-and-hand).
///
/// Queries, replies, and pull requests are routed store-carry-forward with
/// the standard DTN recipe the paper's substrate assumes:
///   - a message starts with a copy budget C (spray);
///   - on contact, a carrier hands half its remaining copies (binary spray)
///     to a peer whose estimated contact rate to the destination is higher
///     than its own by `improvementFactor` (compare-and-forward / focus);
///   - a single-copy message migrates instead of splitting.
/// Meeting the destination always delivers.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"
#include "trace/estimator.hpp"

namespace dtncache::net {

struct ForwardingConfig {
  /// Initial copy budget for sprayed messages.
  std::uint32_t initialCopies = 4;
  /// A relay must beat the carrier's utility by this factor to get a copy.
  double improvementFactor = 1.2;
  /// Hop cap as a safety valve against pathological ping-ponging.
  std::uint32_t maxHops = 16;
};

/// Does a candidate with utility `theirs` beat a carrier with utility `mine`
/// by the improvement factor? A zero-utility candidate never does.
inline bool improvesOn(double mine, double theirs, double improvementFactor) {
  return theirs > mine * improvementFactor && theirs > 0.0;
}

/// The forwarding utilities of one contact's two endpoints, each computed
/// at most once per contact.
///
/// Every utility a contact's forwarding rounds read is a function of the
/// shared rate estimate from endpoint a or b at the contact's time. The
/// estimator changes only when a contact is recorded, at the contact's
/// start, so a value computed once holds for the rest of the contact and
/// both rounds (and both directions) reuse it. Entries carry the epoch of
/// the contact that computed them; open() starts a new epoch, so nothing is
/// ever cleared and no call allocates.
class ContactUtilities {
 public:
  ContactUtilities() = default;
  /// Room for destinations [0, nodes) and utility keys [0, keys).
  ContactUtilities(std::size_t nodes, std::size_t keys) : toNode_(nodes), keyed_(keys) {}

  /// Bind to the contact between `a` and `b` at `now`; every value
  /// memoized for an earlier contact is dropped.
  void open(const trace::ContactRateEstimator& estimator, NodeId a, NodeId b,
            sim::SimTime now) {
    estimator_ = &estimator;
    a_ = a;
    b_ = b;
    now_ = now;
    ++epoch_;
  }

  /// Is `candidate` a strictly better carrier than `carrier` for reaching
  /// `dst`, under the shared rate estimate? The two are the contact's
  /// endpoints, in either order.
  bool betterCarrier(NodeId carrier, NodeId candidate, NodeId dst, double improvementFactor) {
    if (candidate == dst) return true;
    if (carrier == dst) return false;
    const Pair& p = lookup(toNode_[dst], [&](NodeId n) { return estimator_->rate(n, dst, now_); });
    return carrier == a_ ? improvesOn(p.fromA, p.fromB, improvementFactor)
                         : improvesOn(p.fromB, p.fromA, improvementFactor);
  }

  /// Utility number `key` of endpoint `n`: `compute(endpoint)` runs for both
  /// endpoints on the key's first use in this contact, later uses reuse it.
  template <typename Compute>
  double utility(NodeId n, std::size_t key, Compute&& compute) {
    const Pair& p = lookup(keyed_[key], compute);
    return n == a_ ? p.fromA : p.fromB;
  }

 private:
  struct Pair {
    std::uint64_t epoch = 0;  ///< contact that computed the values; 0 = never
    double fromA = 0.0;
    double fromB = 0.0;
  };

  template <typename Compute>
  const Pair& lookup(Pair& p, Compute&& compute) {
    if (p.epoch != epoch_) p = Pair{epoch_, compute(a_), compute(b_)};
    return p;
  }

  const trace::ContactRateEstimator* estimator_ = nullptr;
  NodeId a_ = kNoNode;
  NodeId b_ = kNoNode;
  sim::SimTime now_ = 0.0;
  std::uint64_t epoch_ = 0;
  std::vector<Pair> toNode_;  ///< by destination node
  std::vector<Pair> keyed_;   ///< by caller-chosen utility key
};

/// Copies handed to the relay under binary spray; the carrier keeps the
/// rest. With 1 copy left the message migrates (carrier keeps 0).
inline std::uint32_t sprayShare(std::uint32_t copiesLeft) {
  if (copiesLeft <= 1) return copiesLeft;
  return copiesLeft - copiesLeft / 2;  // ceil(copies/2) to the relay
}

}  // namespace dtncache::net
