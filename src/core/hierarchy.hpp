#pragma once

/// \file hierarchy.hpp
/// The refresh hierarchy: who is responsible for refreshing whom.
///
/// Per data item, the caching nodes form a tree rooted at the source. Each
/// node is responsible for refreshing exactly its children, so (a) the
/// per-node workload is bounded by the fanout bound — the "each caching
/// node is only responsible for refreshing a specific set of caching
/// nodes" of the abstract — and (b) the source does O(fanout) work rather
/// than O(R).
///
/// Construction is greedy (Prim-flavored): grow the tree from the root,
/// always attaching the (parent-with-free-slot, candidate) pair that gives
/// the candidate the best refresh quality. Two quality models:
///   - depth-aware (default): the candidate's end-to-end probability of
///     receiving a version within one period, P(chain delay ≤ τ) through
///     the prospective parent — a deep parent receives versions late, so
///     its children are penalized automatically;
///   - naive (ablation F8): just the single-hop probability 1 − e^{−λ·τ}.
///
/// The structure also supports the local repair operations a distributed
/// deployment performs: re-parenting, member join, member leave.

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "trace/contact.hpp"

namespace dtncache::core {

/// Pairwise rate oracle used at planning time (true matrix or estimator).
using RateFn = std::function<double(NodeId, NodeId)>;

struct HierarchyConfig {
  /// Maximum children per node (responsibility-set bound).
  std::size_t fanoutBound = 3;
  /// Attach by end-to-end refresh probability (true) or single-hop (false).
  bool depthAware = true;
};

class RefreshHierarchy {
 public:
  RefreshHierarchy() = default;

  /// Greedily build a tree over {root} ∪ members. Members must not contain
  /// the root or duplicates. Fails only if fanout capacity < member count.
  static RefreshHierarchy build(NodeId root, const std::vector<NodeId>& members,
                                const RateFn& rate, sim::SimTime tau,
                                const HierarchyConfig& config);

  NodeId root() const { return root_; }
  bool isMember(NodeId n) const { return n < infos_.size() && infos_[n].member; }
  std::size_t memberCount() const { return memberCount_; }  ///< includes root

  /// kNoNode for the root (and for non-members).
  NodeId parentOf(NodeId n) const;
  const std::vector<NodeId>& childrenOf(NodeId n) const;
  std::size_t depthOf(NodeId n) const;  ///< root = 0
  std::size_t maxDepth() const;

  /// Contact rates along the path root → n (planning-time analysis input).
  std::vector<double> chainRates(NodeId n, const RateFn& rate) const;

  /// All nodes except the root, in breadth-first (level) order with each
  /// level's siblings sorted by id. Computed lazily and cached until the
  /// next structural mutation — planning walks this list once per
  /// candidate, so rebuilding the BFS each call dominated its cost. The
  /// reference stays valid across reads; a mutation only marks the cache
  /// stale (it is rebuilt on the *next* call), so a loop over the returned
  /// list that ends in a repair operation is safe.
  const std::vector<NodeId>& membersBelowRoot() const;

  /// True if `ancestor` lies on the path root → n (strictly above n).
  bool isAncestor(NodeId ancestor, NodeId n) const;

  // ---- local repair -------------------------------------------------------

  /// Move `child` under `newParent`. Rejects cycles (newParent inside
  /// child's subtree) and full parents via invariant checks.
  void reparent(NodeId child, NodeId newParent, std::size_t fanoutBound);

  /// Attach a new member under `parent`.
  void addMember(NodeId n, NodeId parent, std::size_t fanoutBound);

  /// Remove a member; its children are adopted by its parent (the paper's
  /// local leave-repair). The root cannot be removed. The adopter may
  /// temporarily exceed the fanout bound; the next maintenance pass
  /// rebalances — mirroring a real deployment, where departure is not the
  /// moment to run an optimization.
  void removeMember(NodeId n);

  /// Full structural validation: single root, acyclic, consistent
  /// parent/child links, correct depths. Throws InvariantViolation.
  void checkInvariants() const;

 private:
  /// Node records live in a vector indexed directly by NodeId — ids are
  /// dense and small (they index the trace's node table), so membership is
  /// a flag test and parent/children lookups are one indexed load; the old
  /// hash-map storage made those lookups the hottest code in planning.
  struct NodeInfo {
    NodeId parent = kNoNode;
    std::vector<NodeId> children;
    std::size_t depth = 0;
    bool member = false;
  };

  void recomputeDepths(NodeId from);
  void addNode(NodeId n, NodeId parent, std::size_t depth);
  NodeInfo& info(NodeId n);
  const NodeInfo& info(NodeId n) const;

  NodeId root_ = kNoNode;
  std::vector<NodeInfo> infos_;           ///< indexed by NodeId
  std::vector<NodeId> memberIds_;         ///< insertion order, root first
  std::size_t memberCount_ = 0;
  mutable std::vector<NodeId> bfsCache_;  ///< membersBelowRoot result
  mutable bool bfsDirty_ = true;
};

}  // namespace dtncache::core
