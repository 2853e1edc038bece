// Spatial-reuse TDMA: interference-aware slot reuse.
//
// Classic TDMA hands every node one slot per n-slot frame, so per-node
// capacity collapses as 1/(n·slot) no matter how large the field grows.
// Here the frame has one slot per *color* of the 2-hop interference graph
// (mac/interference.h): far-apart nodes share a slot and transmit
// concurrently, collision-free by the coloring property, so capacity is a
// function of local density (the chromatic bound), not of n.
//
// The coloring is brought up to date lazily off the topology's generation
// counter, exactly like the routing view: a static field colors once;
// under mobility a recolor happens at most once per position change, and
// only when the MAC actually consults the schedule. A recolor is an exact
// repair around the nodes Topology::moved_since names (see
// InterferenceColoring): it re-queries the movers' neighbor lists,
// patches the lists they changed, and recolors the nodes whose conflict
// partners may have changed, reading partners from the lists at about
// deg² reads per recomputed node. So the schedule is always the one a
// from-scratch coloring would give; only a window that outran the move
// ring pays a full pass. The slot permutation over colors reuses
// TdmaSchedule, seeded like the classic schedule so runs stay
// deterministic across recolors.
// MacStats is the observable contract: recolors, colors_used, max_color,
// reuse_factor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/interference.h"
#include "mac/mac_base.h"
#include "mac/tdma_schedule.h"
#include "phy/topology.h"

namespace jtp::mac {

// The shared, lazily-recolored slot structure (one per fabric). Slot
// *times* are fixed by slot_duration alone; a recolor only changes the
// frame length and the slot -> color ownership map, so in-flight slot
// indices stay meaningful across recolors.
class ReuseSchedule {
 public:
  ReuseSchedule(const phy::Topology& topo, double slot_duration_s,
                std::uint64_t seed, double range_margin);

  // Recolors if the topology generation changed since the last coloring.
  void ensure() const;

  double slot_duration() const { return slot_s_; }
  std::uint64_t slot_at(sim::Time t) const;
  sim::Time slot_start(std::uint64_t slot) const;

  // First slot whose owning color is `node`'s color, index >= from_slot.
  // Refreshes the coloring first.
  std::uint64_t next_owned_slot_from(core::NodeId node,
                                     std::uint64_t from_slot) const;

  // Per-node capacity: one packet per frame of colors_used slots.
  double node_capacity_pps() const;
  double frame_duration() const;

  std::uint32_t color_of(core::NodeId node) const;
  MacStats stats() const;
  // Repair/rebuild work behind the recolors.
  const ColoringStats& coloring_stats() const;

 private:
  // Re-derives the color-slot schedule when the frame length changed.
  void refresh_frame() const;

  const phy::Topology& topo_;
  double slot_s_;
  std::uint64_t seed_;

  mutable InterferenceColoring coloring_;
  mutable std::vector<core::NodeId> movers_;   // moved_since scratch
  mutable std::optional<TdmaSchedule> slots_;  // permutation over colors
  mutable std::uint64_t colored_gen_;
  mutable std::uint64_t recolors_ = 1;  // the construction-time coloring
};

// One node's spatial-reuse MAC: the shared slot-timed loop bound to the
// color schedule. Its estimator capacity tracks the current frame length
// (refreshed after every lazy recolor).
class ReuseTdmaMac final : public SlottedMac {
 public:
  ReuseTdmaMac(sim::Simulator& sim, const ReuseSchedule& schedule,
               phy::Channel& channel, phy::EnergyModel& energy,
               core::NodeId self, MacConfig cfg = {});

 protected:
  std::uint64_t slot_at(sim::Time t) override { return schedule_.slot_at(t); }
  sim::Time slot_start(std::uint64_t slot) override {
    return schedule_.slot_start(slot);
  }
  double slot_duration() override { return schedule_.slot_duration(); }
  std::uint64_t next_owned_slot_from(std::uint64_t from_slot) override;

 private:
  const ReuseSchedule& schedule_;
};

}  // namespace jtp::mac
