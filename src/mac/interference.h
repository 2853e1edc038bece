// Greedy coloring of the 2-hop interference graph.
//
// Two nodes conflict — must not transmit in the same slot — when a
// concurrent transmission by one could collide at a receiver of the
// other. With unit-disk connectivity that is the classic 2-hop rule:
//   conflict(a, b)  iff  dist(a, b) <= margin·R           (carrier range)
//                    or  ∃w ∉ {a,b}: dist(a,w) <= R and dist(b,w) <= R
//                                                         (hidden terminal)
// where R is the radio range and margin >= 1 optionally widens the direct
// check for conservative interference models. A proper coloring of this
// graph is a collision-free slot assignment: if a transmits to neighbor r
// while same-colored b transmits elsewhere, then r (a common-neighbor
// witness) cannot be in range of b, so the reception is clean.
//
// Greedy in node-id order (smallest free color) is deterministic and uses
// at most Δ+1 colors; candidate conflicts are gathered from a uniform
// spatial grid, so a recolor costs O(n · local density²), not O(n²).
//
// InterferenceColoring keeps that coloring in step with a moving field,
// and update() repairs it *exactly*: afterwards it holds the coloring a
// from-scratch pass over the current positions produces. A node's greedy
// color depends only on its lower-id conflict partners and their colors,
// and ids are finalized in ascending order. So repair recomputes, in
// ascending id order, every node whose partner set may have changed, plus
// the higher-id partners of each node whose color changed. Conflict is a
// pure function of the R and margin·R disk graphs, so a mover whose
// adjacency at both radii is unchanged cannot change any partner set: it
// only refreshes its snapshot. The partner sets that can change are those
// of nodes within max(margin·R, 2R) of an edge-changing mover's old or
// new position.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phy/topology.h"

namespace jtp::mac {

struct Coloring {
  std::vector<std::uint32_t> color;  // per node, in [0, colors_used)
  std::size_t colors_used = 0;
};

// Work counters of an InterferenceColoring.
struct ColoringStats {
  std::uint64_t rebuilds = 0;  // full greedy passes, construction included
  std::uint64_t repairs = 0;   // update() calls
  std::uint64_t examined = 0;  // nodes recomputed by repairs (seeds + cascade)
};

class InterferenceColoring {
 public:
  // Colors `topo` once. The topology must outlive this object.
  InterferenceColoring(const phy::Topology& topo, double range_margin);

  const Coloring& coloring() const { return out_; }
  const ColoringStats& stats() const { return stats_; }

  // The from-scratch greedy pass over the current positions.
  void rebuild();

  // Repairs the coloring after the nodes in `movers` (distinct ids)
  // changed position since the last rebuild()/update() — e.g.
  // Topology::moved_since's answer. Every node that moved must be listed;
  // listing one that did not is harmless.
  void update(const std::vector<core::NodeId>& movers);

 private:
  using CellKey = std::uint64_t;
  CellKey cell_of(const phy::Position& p) const;

  // Calls f(b) for every node filed in the 3x3 cell block around p.
  template <typename F>
  void for_each_candidate(const phy::Position& p, F&& f) const;
  // ... in the blocks around p and q (a node may be visited twice).
  template <typename F>
  void for_each_candidate(const phy::Position& p, const phy::Position& q,
                          F&& f) const;

  // The greedy loop body: the smallest color no lower-id conflict partner
  // of `a` holds. Leaves a's radio neighbors in witnesses_ for conflicts().
  std::uint32_t smallest_free(core::NodeId a);
  bool conflicts(core::NodeId a, core::NodeId b) const;

  // Whether a and b's adjacency at R or margin·R differs between their
  // snapshot positions and their current ones.
  bool adjacency_changed(core::NodeId a, core::NodeId b) const;
  void mark_dirty(core::NodeId id);

  const phy::Topology& topo_;
  double r_;       // radio range
  double direct_;  // max(margin, 1)·R
  // Grid cell side. Every conflict partner lies within max(direct, 2R):
  // direct conflicts by definition, hidden-terminal conflicts via a common
  // witness within R of both ends. So the 3x3 block around a node is a
  // complete candidate superset.
  double reach_;

  std::unordered_map<CellKey, std::vector<core::NodeId>> cells_;
  std::vector<CellKey> cell_key_;    // per node: the cell it is filed under
  std::vector<phy::Position> snap_;  // per node: position when last colored
  std::vector<std::uint32_t> uses_;  // per color: nodes holding it
  Coloring out_;
  ColoringStats stats_;

  // Scratch. Stamps avoid per-call clearing: color-in-use marks carry one
  // stamp per loop-body call, dirty marks the repair count.
  std::vector<std::uint64_t> used_stamp_;
  std::uint64_t stamp_ = 0;
  std::vector<core::NodeId> witnesses_;
  std::vector<std::uint64_t> dirty_stamp_;
  std::vector<core::NodeId> heap_;  // dirty nodes, min-heap by id
};

// Colors the interference graph of `topo` with the direct conflict range
// margin·R (margin values below 1 behave as 1: direct neighbors always
// conflict). Deterministic for a given topology.
Coloring color_interference(const phy::Topology& topo, double range_margin);

}  // namespace jtp::mac
