// Spatial node partitioner for the sharded event loop.
//
// Shards must be spatially contiguous: the sharded runner's lookahead
// argument only bounds *cross-shard* traffic, and radio traffic is
// local, so cutting the field into strips of whole grid columns keeps
// almost all deliveries same-shard. We use the Topology grid's base
// geometry (cell side = radio range): every node is binned by
// floor(x / range), occupied strips are cut into K contiguous runs with
// balanced node counts (greedy: close each shard once it reaches the
// ideal share of the remaining nodes), and the per-node assignment is a
// pure function of positions — identical on every call for a fixed
// topology, which the determinism contract requires.
//
// If fewer than K strips are occupied (e.g. a dense cluster narrower
// than the radio range), the effective shard count shrinks: callers
// must use shard_count(), not the K they asked for.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.h"
#include "phy/topology.h"

namespace jtp::phy {

struct Partition {
  // assignment[node] in [0, shard_count).
  std::vector<std::size_t> assignment;
  std::size_t shard_count = 1;

  std::size_t shard_of(core::NodeId id) const { return assignment.at(id); }
};

// Partitions `topo`'s nodes into at most `max_shards` spatially
// contiguous, size-balanced vertical strips. max_shards == 0 is treated
// as 1. Shard ids are ordered left to right, every shard is non-empty,
// and the result is deterministic in the topology alone.
Partition partition_strips(const Topology& topo, std::size_t max_shards);

}  // namespace jtp::phy
