// Slotted TDMA: one slot per interference color per frame.
//
// The paper's MAC is JAVeLEN-style TDMA: every node owns one
// pseudo-random slot per n-slot frame (mac/tdma_schedule.h), so per-node
// capacity collapses as 1/(n·slot) no matter how large the field grows.
// Spatial-reuse TDMA generalizes it: the frame has one slot per *color*
// of the 2-hop interference graph (mac/interference.h), far-apart nodes
// share a slot and transmit concurrently, collision-free by the coloring
// property, so capacity is a function of local density (the chromatic
// bound), not of n. Classic TDMA is the identity coloring — every node its
// own color — so both run on one SlotSchedule and one SlottedMac; the
// fabric picks the coloring (mac/fabric.cc).
//
// Under reuse the coloring is brought up to date lazily off the
// topology's generation counter, exactly like the routing view: a static
// field colors once; under mobility a recolor happens at most once per
// position change, and only when the MAC actually consults the schedule.
// A recolor is an exact repair around the nodes Topology::moved_since
// names (see InterferenceColoring): it re-queries the movers' neighbor
// lists, patches the lists they changed, and recolors the nodes whose
// conflict partners may have changed, reading partners from the lists at
// about deg² reads per recomputed node. So the schedule is always the one
// a from-scratch coloring would give; only a window that outran the move
// ring pays a full pass. The identity coloring never recolors.
// MacStats is the observable contract: recolors, colors_used,
// reuse_factor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/interference.h"
#include "mac/mac.h"
#include "mac/tdma_schedule.h"
#include "phy/topology.h"

namespace jtp::mac {

// The shared slot structure (one per fabric). Slot *times* are fixed by
// slot_duration alone; a recolor only changes the frame length and the
// slot -> color ownership map, so in-flight slot indices stay meaningful
// across recolors.
class SlotSchedule {
 public:
  // An empty `reuse_margin` is classic TDMA: color[v] = v, colors_used =
  // n. Otherwise the 2-hop interference coloring with that direct
  // conflict margin (see InterferenceColoring).
  SlotSchedule(const phy::Topology& topo, double slot_duration_s,
               std::uint64_t seed, std::optional<double> reuse_margin);

  // Recolors if the topology generation changed since the last coloring
  // (never under classic TDMA).
  void ensure() const;

  double slot_duration() const { return slots_.slot_duration(); }
  std::uint64_t slot_at(sim::Time t) const { return slots_.slot_at(t); }
  sim::Time slot_start(std::uint64_t slot) const {
    return slots_.slot_start(slot);
  }
  std::uint64_t first_slot_from(sim::Time t) const {
    return slots_.first_slot_from(t);
  }

  // First slot whose owning color is `node`'s color, index >= from_slot.
  // Refreshes the coloring first.
  std::uint64_t next_owned_slot_from(core::NodeId node,
                                     std::uint64_t from_slot) const;

  // Per-node capacity: one packet per frame of colors_used slots.
  double node_capacity_pps() const;
  double frame_duration() const;

  std::uint32_t color_of(core::NodeId node) const;
  MacStats stats() const;
  // Repair/rebuild work behind the recolors (all zero under classic
  // TDMA).
  ColoringStats coloring_stats() const;

 private:
  const Coloring& coloring() const;
  // Re-derives the color-slot schedule when the frame length changed.
  void refresh_frame() const;

  const phy::Topology& topo_;
  std::uint64_t seed_;

  // Empty under classic TDMA, whose coloring is identity_.
  mutable std::optional<InterferenceColoring> reuse_;
  Coloring identity_;
  mutable std::vector<core::NodeId> movers_;  // moved_since scratch
  // The permutation over colors: the pseudo-random slot -> color map per
  // frame, same discipline and seed for both colorings.
  mutable TdmaSchedule slots_;
  mutable std::uint64_t colored_gen_;
  mutable std::uint64_t recolors_;
};

// One node's slotted MAC: one attempt at the head of the queue per owned
// slot, a success handed to the deliver hook to land one slot-duration
// later. Its estimator capacity tracks the current frame length.
class SlottedMac final : public MacIface {
 public:
  SlottedMac(sim::Simulator& sim, const SlotSchedule& schedule,
             phy::Channel& channel, phy::EnergyModel& energy,
             core::NodeId self, const MacConfig& cfg = {});

 protected:
  void kick() override { schedule_next_tx(); }

 private:
  void schedule_next_tx();
  void transmit_head();

  const SlotSchedule& schedule_;
  bool tx_scheduled_ = false;
  std::uint64_t min_slot_ = 0;  // earliest slot the next tx may use
};

}  // namespace jtp::mac
