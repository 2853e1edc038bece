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
// at most Δ+1 colors.
//
// InterferenceColoring reads the conflict relation from per-node lists
// instead of geometry. It keeps each node's ascending radio-neighbor list
// N(v) (within R) at the positions of the last coloring and, only when
// margin > 1, its within-margin·R list W(v). a's conflict partners are
// then W(a) (or N(a)) plus N(w) for every w in N(a), minus a itself: the
// greedy step reads about deg² list entries and computes no distance.
// rebuild() fills each list with one Topology::within_into query, so a
// from-scratch pass costs n grid queries per kept radius plus n·deg² reads.
//
// update() keeps that coloring in step with a moving field and repairs it
// *exactly*: afterwards it holds the coloring a from-scratch pass over the
// current positions produces. It re-queries only the movers and patches
// the lists of the nodes that entered or left a mover's list. A partner
// set can change only through a changed list edge (m, v): at m and v
// themselves, and — for a radio edge — at every x holding m or v as a
// witness, i.e. the radio neighbors of m and v (an x whose own edge to
// them changed is an endpoint of that edge). So each changed radio edge
// dirties m, v and both radio lists before and after the patch; a change
// at margin·R alone dirties only m and v. A node's greedy color depends
// only on its lower-id partners and their colors, and ids are finalized in
// ascending order, so the repair recomputes dirty nodes in ascending id
// order and dirties the higher-id partners (walked from the lists) of
// each node whose color changed. A mover whose lists did not change costs
// its grid queries and nothing else.
#pragma once

#include <cstdint>
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
  using Lists = std::vector<std::vector<core::NodeId>>;

  // The direct-conflict list: W(a) when margin > 1, else N(a).
  const std::vector<core::NodeId>& direct(core::NodeId a) const {
    return wide_.empty() ? radio_[a] : wide_[a];
  }

  // The greedy loop body: the smallest color no lower-id conflict partner
  // of `a` holds.
  std::uint32_t smallest_free(core::NodeId a);

  // Re-queries mover m's list in `lists` at `radius` and patches the lists
  // of the nodes that entered or left it. Leaves those nodes in changed_
  // and m's previous list in fresh_.
  void requery(core::NodeId m, double radius, Lists& lists);
  void mark_dirty(core::NodeId id);
  void mark_dirty(const std::vector<core::NodeId>& ids);

#ifndef NDEBUG
  // Whether every list equals Topology::within_into at the current
  // positions and every edge is filed at both ends.
  bool lists_match_topology() const;
#endif

  const phy::Topology& topo_;
  double r_;       // radio range
  double direct_;  // max(margin, 1)·R

  Lists radio_;  // per node: N(v), ascending
  Lists wide_;   // per node: W(v), ascending; empty unless margin > 1
  std::vector<std::uint32_t> uses_;  // per color: nodes holding it
  Coloring out_;
  ColoringStats stats_;

  // Scratch. Stamps avoid per-call clearing: color-in-use marks carry one
  // stamp per loop-body call, dirty marks the repair count.
  std::vector<std::uint64_t> used_stamp_;
  std::uint64_t stamp_ = 0;
  std::vector<core::NodeId> fresh_;
  std::vector<core::NodeId> changed_;
  std::vector<std::uint64_t> dirty_stamp_;
  std::vector<core::NodeId> heap_;  // dirty nodes, min-heap by id
};

// Colors the interference graph of `topo` with the direct conflict range
// margin·R (margin values below 1 behave as 1: direct neighbors always
// conflict). Deterministic for a given topology.
Coloring color_interference(const phy::Topology& topo, double range_margin);

}  // namespace jtp::mac
