// Node placement and range-based connectivity.
//
// Builders for the paper's three scenario families: linear chains (§6.1.1),
// connected random fields (§6.1.2), and the 14-node indoor testbed
// (Table 2). Positions are mutable to support mobility.
//
// Connectivity queries are served by a uniform spatial grid whose cell
// side equals the radio range: every neighbor of a node lies in the 3x3
// cell block around it, so neighbors()/connected() cost O(cell occupancy)
// per node instead of a full scan — the difference between paper-scale
// (n ~ 25) and production-scale (n ~ 1000) control planes. set_position
// updates the index incrementally and bumps a generation counter that
// consumers (the routing view) use to detect "topology unchanged" without
// comparing positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace jtp::sim {
class Rng;
}

namespace jtp::phy {

struct Position {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Position& a, const Position& b);

class Topology {
 public:
  Topology(std::size_t n_nodes, double radio_range_m);

  std::size_t size() const { return pos_.size(); }
  double radio_range() const { return range_; }

  const Position& position(core::NodeId id) const { return pos_.at(id); }
  void set_position(core::NodeId id, Position p);

  // Monotonic change counter: bumped by every set_position. Two reads
  // returning the same value guarantee no position changed in between.
  std::uint64_t generation() const { return generation_; }

  // Fills `out` with the distinct nodes whose position changed in
  // (gen, generation()], ascending. The answer comes from a bounded ring
  // of recent moves (one entry per generation, capacity ~4n), so a
  // consumer that syncs regularly pays O(moves since last sync) instead
  // of re-snapshotting positions it already holds. Returns false when
  // the window is no longer covered by the ring — the caller must treat
  // that as "every node may have moved" and fall back to a full diff.
  bool moved_since(std::uint64_t gen, std::vector<core::NodeId>& out) const;

  // Capacity of the move ring (generations of history moved_since can
  // reconstruct). Exposed for tests pinning the overflow fallback.
  std::size_t move_history_capacity() const { return move_ring_.size(); }

  bool in_range(core::NodeId a, core::NodeId b) const;
  std::vector<core::NodeId> neighbors(core::NodeId id) const;

  // Allocation-free variant for per-node loops (the routing view's
  // adjacency snapshot, interference witnesses, connected()): clears `out`
  // and fills it with the in-range ids in ascending order — the same order
  // the full-scan implementation produced, which the routing tie-breaks
  // (and therefore the committed baselines) depend on.
  void neighbors_into(core::NodeId id, std::vector<core::NodeId>& out) const;

  // True if the range graph is a single connected component.
  bool connected() const;

  // --- builders ---
  // Chain of n nodes spaced `spacing` apart (spacing < range).
  static Topology linear(std::size_t n, double spacing_m, double range_m);

  // Uniform random placement in a square field; resamples until connected
  // (the field must be sized so connectivity holds w.h.p. — see
  // exp::random_field_side_m).
  static Topology random_connected(std::size_t n, double field_m,
                                   double range_m, sim::Rng& rng,
                                   int max_tries = 200);

 private:
  // Packed (cell-x, cell-y) pair; cell side = radio range.
  using CellKey = std::uint64_t;
  static CellKey pack_cell(std::int64_t cx, std::int64_t cy);
  CellKey cell_of(const Position& p) const;

  std::vector<Position> pos_;
  double range_;
  std::uint64_t generation_ = 0;
  // Ring of recent movers, indexed by generation % capacity: generation
  // bumps exactly once per set_position, so the ring always holds the
  // movers of the last `capacity` generations with no head pointer.
  std::vector<core::NodeId> move_ring_;
  std::unordered_map<CellKey, std::vector<core::NodeId>> cells_;
  std::vector<CellKey> cell_key_;  // per node: the cell it is filed under
};

}  // namespace jtp::phy
