#include "core/push_targets.hpp"

namespace dtncache::core {

PushTargets buildPushTargets(const RefreshHierarchy& hierarchy, const ReplicationPlan& plan) {
  PushTargets out;
  const std::vector<NodeId>& below = hierarchy.membersBelowRoot();
  out.members.reserve(below.size() + 1);
  out.members.push_back(hierarchy.root());
  out.members.insert(out.members.end(), below.begin(), below.end());
  out.offsets.reserve(out.members.size() + 1);
  out.offsets.push_back(0);
  for (NodeId n : out.members) {
    const std::vector<NodeId>& children = hierarchy.childrenOf(n);
    out.targets.insert(out.targets.end(), children.begin(), children.end());
    for (NodeId m : below)
      if (plan.isHelper(n, m)) out.targets.push_back(m);
    out.offsets.push_back(static_cast<std::uint32_t>(out.targets.size()));
  }
  return out;
}

}  // namespace dtncache::core
