#pragma once

/// \file push_targets.hpp
/// One item's responsibility sets, flattened for the contact path.
///
/// A member of an item's refresh hierarchy pushes to its tree children and
/// to the below-root members it is a helper for. Those sets change only
/// when the hierarchy or its replication plan is re-planned, so the
/// hierarchical scheme builds this table there and every contact reads it
/// with indexed loads instead of walking the hierarchy and the plan.

#include <cstdint>
#include <vector>

#include "core/hierarchy.hpp"
#include "core/replication.hpp"

namespace dtncache::core {

struct PushTargets {
  /// Every member, root first, then membersBelowRoot() order.
  std::vector<NodeId> members;
  /// members.size() + 1 bounds: member i pushes to targets[offsets[i],
  /// offsets[i + 1]).
  std::vector<std::uint32_t> offsets;
  /// Per member: its children in childrenOf() order, then the below-root
  /// members it helps in membersBelowRoot() order. A child that the member
  /// also helps is listed twice, once in each part.
  std::vector<NodeId> targets;

  bool operator==(const PushTargets&) const = default;
};

/// The responsibility sets of `hierarchy` under `plan`: member n pushes to
/// target m iff m is a child of n or n is one of m's helpers, and m is a
/// member. A pure function of its arguments.
PushTargets buildPushTargets(const RefreshHierarchy& hierarchy, const ReplicationPlan& plan);

}  // namespace dtncache::core
