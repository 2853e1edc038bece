// Node placement and range-based connectivity.
//
// Builders for the paper's three scenario families: linear chains (§6.1.1),
// connected random fields (§6.1.2), and the 14-node indoor testbed
// (Table 2). Positions are mutable to support mobility.
//
// Range queries scan a dense cell grid: one row-major vector of cells over
// the occupied box, so every neighbor lies in the 3x3 block around a node's
// cell. Each node keeps its cell and its index in it, so set_position moves
// it in O(1); a position outside the box regrows the box with slack and
// refiles every node. The cell side is R, doubled while the box would need
// more than 4n + 256 cells: storage stays O(n), and answers do not change.
// set_position also bumps a generation counter that consumers (the routing
// view, the reuse schedule) compare to detect "topology unchanged".
#pragma once

#include <cstddef>
#include <cstdint>
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
  // adjacency snapshot): clears `out` and fills it with the
  // in-range ids in ascending order — the same order the full-scan
  // implementation produced, which the routing tie-breaks (and therefore
  // the committed baselines) depend on. The radius-R case of within_into.
  void neighbors_into(core::NodeId id, std::vector<core::NodeId>& out) const;

  // Clears `out` and fills it with every other node within `radius` of
  // `id` (inclusive), ascending. Scans the (2k+1)^2 cell block around the
  // node, k = ceil(radius / side): the 3x3 block at radius R.
  void within_into(core::NodeId id, double radius,
                   std::vector<core::NodeId>& out) const;

  // True if the range graph is a single connected component.
  bool connected() const;

  // --- builders ---
  // Chain of n nodes spaced `spacing` apart (spacing < range).
  static Topology linear(std::size_t n, double spacing_m, double range_m);

  // Uniform random placement in a square field; resamples until connected
  // (see exp::random_field_side_m for how often an attempt is accepted).
  // Only the accepted placement is filed, so generation() == n.
  static Topology random_connected(std::size_t n, double field_m,
                                   double range_m, sim::Rng& rng,
                                   int max_tries = 200);

 private:
  std::int64_t cell_at(const Position& p) const;  // -1 outside the box
  void file(core::NodeId id, std::int64_t cell);
  void regrid();  // fits the box around all positions, refiles every node

  std::vector<Position> pos_;
  double range_;
  std::uint64_t generation_ = 0;
  // Ring of recent movers, indexed by generation % capacity: generation
  // bumps exactly once per set_position, so the ring always holds the
  // movers of the last `capacity` generations with no head pointer.
  std::vector<core::NodeId> move_ring_;
  // The box: cells [cx0_, cx0_ + cols_) x [cy0_, cy0_ + rows_) in units of
  // side_, where a coordinate v lies in cell floor(v / side_).
  double side_ = 0.0;
  std::int64_t cx0_ = 0, cy0_ = 0, cols_ = 0, rows_ = 0;
  std::vector<std::vector<core::NodeId>> cells_;  // row-major
  std::vector<std::uint32_t> cell_of_;   // per node: its cell
  std::vector<std::uint32_t> index_of_;  // per node: its index in that cell
};

}  // namespace jtp::phy
