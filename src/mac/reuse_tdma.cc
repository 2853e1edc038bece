#include "mac/reuse_tdma.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jtp::mac {

ReuseSchedule::ReuseSchedule(const phy::Topology& topo, double slot_duration_s,
                             std::uint64_t seed, double range_margin)
    : topo_(topo),
      slot_s_(slot_duration_s),
      seed_(seed),
      coloring_(topo, range_margin),
      colored_gen_(topo.generation()) {
  if (slot_duration_s <= 0.0)
    throw std::invalid_argument("ReuseSchedule: slot duration must be > 0");
  refresh_frame();
}

void ReuseSchedule::ensure() const {
  const std::uint64_t gen = topo_.generation();
  if (gen == colored_gen_) return;
  // The move ring names the nodes that moved since the last coloring; once
  // the window has outrun it, every node may have moved.
  if (topo_.moved_since(colored_gen_, movers_))
    coloring_.update(movers_);
  else
    coloring_.rebuild();
  colored_gen_ = gen;
  ++recolors_;
  refresh_frame();
}

void ReuseSchedule::refresh_frame() const {
  // The permutation over colors keeps the slot -> color map pseudo-random
  // per frame, same discipline (and seed) as the classic schedule. It is
  // a pure function of the frame length, so it only changes with it.
  const std::size_t colors =
      std::max<std::size_t>(coloring_.coloring().colors_used, 1);
  if (!slots_ || slots_->nodes() != colors)
    slots_.emplace(colors, slot_s_, seed_);
}

std::uint64_t ReuseSchedule::slot_at(sim::Time t) const {
  if (t < 0.0) throw std::invalid_argument("ReuseSchedule: negative time");
  return static_cast<std::uint64_t>(std::floor(t / slot_s_));
}

sim::Time ReuseSchedule::slot_start(std::uint64_t slot) const {
  return static_cast<sim::Time>(slot) * slot_s_;
}

std::uint64_t ReuseSchedule::next_owned_slot_from(
    core::NodeId node, std::uint64_t from_slot) const {
  ensure();
  // Ownership is per color: colors are dense ids in [0, colors_used), so
  // the color schedule's own lookup applies directly.
  return slots_->next_owned_slot_from(color_of(node), from_slot);
}

double ReuseSchedule::node_capacity_pps() const {
  ensure();
  return slots_->node_capacity_pps();
}

double ReuseSchedule::frame_duration() const {
  ensure();
  return slots_->frame_duration();
}

std::uint32_t ReuseSchedule::color_of(core::NodeId node) const {
  ensure();
  const Coloring& c = coloring_.coloring();
  if (node >= c.color.size())
    throw std::out_of_range("ReuseSchedule: node id out of range");
  return c.color[node];
}

const ColoringStats& ReuseSchedule::coloring_stats() const {
  ensure();
  return coloring_.stats();
}

MacStats ReuseSchedule::stats() const {
  ensure();
  const Coloring& c = coloring_.coloring();
  MacStats st;
  st.recolors = recolors_;
  st.colors_used = c.colors_used;
  st.max_color = c.colors_used == 0 ? 0 : c.colors_used - 1;
  st.reuse_factor = c.colors_used == 0
                        ? 1.0
                        : static_cast<double>(c.color.size()) /
                              static_cast<double>(c.colors_used);
  return st;
}

ReuseTdmaMac::ReuseTdmaMac(sim::Simulator& sim, const ReuseSchedule& schedule,
                           phy::Channel& channel, phy::EnergyModel& energy,
                           core::NodeId self, MacConfig cfg)
    : SlottedMac(sim, channel, energy, self, cfg), schedule_(schedule) {
  estimator_.set_capacity_pps(schedule.node_capacity_pps());
}

std::uint64_t ReuseTdmaMac::next_owned_slot_from(std::uint64_t from_slot) {
  // A recolor may have shrunk or grown the frame since the last look;
  // refresh the estimator's capacity reference alongside.
  schedule_.ensure();
  estimator_.set_capacity_pps(schedule_.node_capacity_pps());
  return schedule_.next_owned_slot_from(self_, from_slot);
}

}  // namespace jtp::mac
