#include "net/network.hpp"

#include <algorithm>
#include <cmath>

#include "net/energy.hpp"
#include "sim/assert.hpp"
#include "sim/shard_context.hpp"

namespace dtncache::net {

bool ContactChannel::transfer(Traffic category, std::uint64_t bytes, NodeId sender) {
  if (bytes > remaining_) return false;
  remaining_ -= bytes;
  log_.record(category, bytes, sender);
  if (energy_ != nullptr && sender != kNoNode) {
    const NodeId receiver = sender == a_ ? b_ : a_;
    energy_->onTransfer(sender, receiver, bytes);
  }
  return true;
}

Network::Network(sim::Simulator& simulator, const trace::ContactTrace& trace,
                 NetworkConfig config)
    : simulator_(simulator),
      trace_(trace),
      config_(config),
      log_(trace.nodeCount()),
      lossRng_(config.lossSeed) {
  DTNCACHE_CHECK(config_.bandwidthBytesPerSec > 0.0);
  DTNCACHE_CHECK(config_.contactLossRate >= 0.0 && config_.contactLossRate <= 1.0);
}

void Network::setObservability(obs::Tracer* tracer, obs::Registry* registry) {
  tracer_ = tracer;
  if (registry != nullptr) {
    ctrDelivered_ = &registry->counter("net.contact.delivered");
    ctrSuppressed_ = &registry->counter("net.contact.suppressed");
    ctrLost_ = &registry->counter("net.contact.lost");
  } else {
    ctrDelivered_ = ctrSuppressed_ = ctrLost_ = nullptr;
  }
}

void Network::start(ContactFn onContact) {
  DTNCACHE_CHECK_MSG(!started_, "Network::start called twice");
  started_ = true;
  onContact_ = std::move(onContact);
  const auto& contacts = trace_.contacts();
  // Contacts already in the past (e.g. a truncated warm-up) are skipped;
  // the trace is start-sorted, so they form a prefix.
  const sim::SimTime now = simulator_.now();
  firstContact_ = static_cast<std::size_t>(
      std::lower_bound(contacts.begin(), contacts.end(), now,
                       [](const trace::Contact& c, sim::SimTime t) { return c.start < t; }) -
      contacts.begin());
  const std::size_t count = contacts.size() - firstContact_;
  if (count == 0) return;
  // One FIFO rank per remaining contact, claimed here: contact i fires with
  // rank seqBase_ + (i - firstContact_), exactly where the old eager
  // fan-out would have placed it, without any contact entering the heap.
  seqBase_ = simulator_.reserveSequences(count);
  if (sharded_) {
    // No stream: the shard driver pulls contacts by index. Plain mode counts
    // the stream as one pending event from here on — the pending bias takes
    // its place so peak-pending tracking stays byte-identical (the driver
    // drops the bias when the last contact is processed, where plain mode's
    // stream runs dry).
    simulator_.setPendingBias(1);
    return;
  }
  simulator_.attachStream(*this, count, seqBase_);
}

void Network::setShardedDelivery(bool on) {
  DTNCACHE_CHECK_MSG(!started_, "setShardedDelivery must precede start()");
  sharded_ = on;
}

void Network::enterShardMode(std::size_t contexts) {
  DTNCACHE_CHECK(sharded_ && started_ && shardCtxs_.empty());
  DTNCACHE_CHECK_MSG(energy_ == nullptr, "sharded delivery excludes energy runs");
  shardCtxs_.resize(contexts);
  for (ShardCtx& ctx : shardCtxs_) ctx.log = TransferLog(trace_.nodeCount());
  // Plain delivery draws one bernoulli per delivered contact, in index
  // order. Drawing the whole suffix here consumes the identical stream
  // (lossRng_ serves nothing else), so outcome i matches plain outcome i;
  // draws past the horizon are simply never read.
  if (config_.contactLossRate > 0.0) {
    const auto& contacts = trace_.contacts();
    lossLost_.resize(contacts.size() - firstContact_);
    for (std::size_t i = 0; i < lossLost_.size(); ++i)
      lossLost_[i] = lossRng_.bernoulli(config_.contactLossRate) ? 1 : 0;
  }
}

void Network::deliverSharded(std::size_t index) {
  const trace::Contact& c = trace_.contacts()[index];
  const sim::SimTime t = c.start;
  ShardCtx& ctx = shardCtxs_[sim::tlsShard.ctx];
  if (config_.contactLossRate > 0.0 && lossLost_[index - firstContact_] != 0) {
    ++ctx.lost;
    if (ctrLost_ != nullptr) ctrLost_->add();
    DTNCACHE_EVENT(tracer_, obs::EventKind::kContactLost, t, {"a", c.a}, {"b", c.b});
    return;
  }
  if (filter_ && !filter_(c.a, c.b, t)) {
    ++ctx.suppressed;
    if (ctrSuppressed_ != nullptr) ctrSuppressed_->add();
    DTNCACHE_EVENT(tracer_, obs::EventKind::kContactSuppressed, t, {"a", c.a},
                   {"b", c.b});
    return;
  }
  ++ctx.delivered;
  if (ctrDelivered_ != nullptr) ctrDelivered_->add();
  const auto budget = std::max<std::uint64_t>(
      config_.minContactBudgetBytes,
      static_cast<std::uint64_t>(std::llround(c.duration * config_.bandwidthBytesPerSec)));
  ContactChannel channel(budget, ctx.log, c.a, c.b, nullptr);
  onContact_(c.a, c.b, t, c.duration, channel);
  DTNCACHE_EVENT(tracer_, obs::EventKind::kContact, t, {"a", c.a}, {"b", c.b},
                 {"dur", c.duration}, {"budget", budget},
                 {"spent", budget - channel.remainingBytes()});
}

void Network::exitShardMode() {
  for (const ShardCtx& ctx : shardCtxs_) {
    log_.merge(ctx.log);
    contactsDelivered_ += ctx.delivered;
    contactsSuppressed_ += ctx.suppressed;
    contactsLost_ += ctx.lost;
  }
  shardCtxs_.clear();
  lossLost_.clear();
}

void Network::deliverContact(std::size_t index, sim::SimTime t) {
  const trace::Contact& c = trace_.contacts()[index];
  if (energy_ != nullptr) energy_->advanceTo(t);
  if (config_.contactLossRate > 0.0 && lossRng_.bernoulli(config_.contactLossRate)) {
    ++contactsLost_;
    if (ctrLost_ != nullptr) ctrLost_->add();
    DTNCACHE_EVENT(tracer_, obs::EventKind::kContactLost, t, {"a", c.a}, {"b", c.b});
    return;
  }
  if (filter_ && !filter_(c.a, c.b, t)) {
    ++contactsSuppressed_;
    if (ctrSuppressed_ != nullptr) ctrSuppressed_->add();
    DTNCACHE_EVENT(tracer_, obs::EventKind::kContactSuppressed, t, {"a", c.a},
                   {"b", c.b});
    return;
  }
  ++contactsDelivered_;
  if (ctrDelivered_ != nullptr) ctrDelivered_->add();
  if (energy_ != nullptr) energy_->onContact(c.a, c.b);
  const auto budget = std::max<std::uint64_t>(
      config_.minContactBudgetBytes,
      static_cast<std::uint64_t>(std::llround(c.duration * config_.bandwidthBytesPerSec)));
  ContactChannel channel(budget, log_, c.a, c.b, energy_);
  onContact_(c.a, c.b, t, c.duration, channel);
  // Emitted after the protocol ran so the event can report the spend;
  // same sim time as the pushes/forwards the contact carried.
  DTNCACHE_EVENT(tracer_, obs::EventKind::kContact, t, {"a", c.a}, {"b", c.b},
                 {"dur", c.duration}, {"budget", budget},
                 {"spent", budget - channel.remainingBytes()});
}

}  // namespace dtncache::net
