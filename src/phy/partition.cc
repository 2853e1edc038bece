#include "phy/partition.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace jtp::phy {

Partition partition_strips(const Topology& topo, std::size_t max_shards) {
  const std::size_t n = topo.size();
  Partition out;
  out.assignment.assign(n, 0);
  out.shard_count = 1;
  if (max_shards <= 1 || n == 0) return out;

  // Bin nodes into vertical strips one radio range wide (the topology
  // grid's cell side unless a sparse box coarsens it), so a strip
  // boundary is also an interference-locality boundary. std::map keeps
  // strips ordered left to right.
  const double side = topo.radio_range();
  std::map<std::int64_t, std::vector<core::NodeId>> strips;
  for (std::size_t id = 0; id < n; ++id) {
    const Position& p = topo.position(static_cast<core::NodeId>(id));
    strips[static_cast<std::int64_t>(std::floor(p.x / side))].push_back(
        static_cast<core::NodeId>(id));
  }

  const std::size_t k = std::min(max_shards, strips.size());
  if (k <= 1) return out;

  // Greedy balanced cut: walk strips left to right; before adding a
  // strip, close the current shard if overshooting the fair share (of
  // everything this and later shards must still absorb) would be worse
  // than undershooting it — or if each remaining shard needs one of the
  // remaining strips to stay non-empty.
  std::size_t shard = 0;
  std::size_t in_shard = 0;     // nodes in the shard being built
  std::size_t nodes_left = n;   // nodes not yet assigned (incl. this strip)
  std::size_t strips_left = strips.size();
  for (const auto& [cx, ids] : strips) {
    if (shard + 1 < k && in_shard > 0) {
      const std::size_t shards_left = k - shard;
      const double ideal =
          static_cast<double>(in_shard + nodes_left) / shards_left;
      const bool overshoots =
          static_cast<double>(2 * in_shard + ids.size()) > 2.0 * ideal;
      if (overshoots || strips_left == shards_left) {
        ++shard;
        in_shard = 0;
      }
    }
    for (core::NodeId id : ids) out.assignment[id] = shard;
    in_shard += ids.size();
    nodes_left -= ids.size();
    --strips_left;
  }
  out.shard_count = shard + 1;
  return out;
}

}  // namespace jtp::phy
