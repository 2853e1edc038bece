#include "mac/slotted.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace jtp::mac {

SlotSchedule::SlotSchedule(const phy::Topology& topo, double slot_duration_s,
                           std::uint64_t seed,
                           std::optional<double> reuse_margin)
    : topo_(topo),
      seed_(seed),
      slots_(1, slot_duration_s, seed),
      colored_gen_(topo.generation()),
      recolors_(reuse_margin ? 1 : 0) {  // the construction-time coloring
  if (reuse_margin) {
    reuse_.emplace(topo, *reuse_margin);
  } else {
    identity_.color.resize(topo.size());
    std::iota(identity_.color.begin(), identity_.color.end(), 0u);
    identity_.colors_used = topo.size();
  }
  refresh_frame();
}

void SlotSchedule::ensure() const {
  if (!reuse_) return;  // the identity coloring never changes
  const std::uint64_t gen = topo_.generation();
  if (gen == colored_gen_) return;
  // The move ring names the nodes that moved since the last coloring; once
  // the window has outrun it, every node may have moved.
  if (topo_.moved_since(colored_gen_, movers_))
    reuse_->update(movers_);
  else
    reuse_->rebuild();
  colored_gen_ = gen;
  ++recolors_;
  refresh_frame();
}

const Coloring& SlotSchedule::coloring() const {
  return reuse_ ? reuse_->coloring() : identity_;
}

void SlotSchedule::refresh_frame() const {
  // The permutation over colors keeps the slot -> color map pseudo-random
  // per frame. It is a pure function of the frame length, so it only
  // changes with it.
  const std::size_t colors = std::max<std::size_t>(coloring().colors_used, 1);
  if (slots_.nodes() != colors)
    slots_ = TdmaSchedule(colors, slots_.slot_duration(), seed_);
}

std::uint64_t SlotSchedule::next_owned_slot_from(
    core::NodeId node, std::uint64_t from_slot) const {
  // Ownership is per color: colors are dense ids in [0, colors_used), so
  // the color schedule's own lookup applies directly.
  return slots_.next_owned_slot_from(color_of(node), from_slot);
}

double SlotSchedule::node_capacity_pps() const {
  ensure();
  return slots_.node_capacity_pps();
}

double SlotSchedule::frame_duration() const {
  ensure();
  return slots_.frame_duration();
}

std::uint32_t SlotSchedule::color_of(core::NodeId node) const {
  ensure();
  const Coloring& c = coloring();
  if (node >= c.color.size())
    throw std::out_of_range("SlotSchedule: node id out of range");
  return c.color[node];
}

ColoringStats SlotSchedule::coloring_stats() const {
  ensure();
  return reuse_ ? reuse_->stats() : ColoringStats{};
}

MacStats SlotSchedule::stats() const {
  ensure();
  const Coloring& c = coloring();
  MacStats st;
  st.recolors = recolors_;
  st.colors_used = c.colors_used;
  if (c.colors_used > 0)
    st.reuse_factor = static_cast<double>(c.color.size()) /
                      static_cast<double>(c.colors_used);
  return st;
}

SlottedMac::SlottedMac(sim::Simulator& sim, const SlotSchedule& schedule,
                       phy::Channel& channel, phy::EnergyModel& energy,
                       core::NodeId self, const MacConfig& cfg)
    : MacIface(sim, channel, energy, self, cfg), schedule_(schedule) {
  estimator_.set_capacity_pps(schedule.node_capacity_pps());
}

void SlottedMac::schedule_next_tx() {
  if (tx_scheduled_ || (queue_.empty() && ctrl_queue_.empty())) return;
  // One transmission per owned slot: never reuse the slot we just used.
  const std::uint64_t from =
      std::max(schedule_.first_slot_from(sim_.now()), min_slot_);
  const std::uint64_t slot = schedule_.next_owned_slot_from(self_, from);
  // A recolor may have shrunk or grown the frame since the last look.
  estimator_.set_capacity_pps(schedule_.node_capacity_pps());
  tx_scheduled_ = true;
  sim_.at(schedule_.slot_start(slot), [this, slot] {
    tx_scheduled_ = false;
    min_slot_ = slot + 1;
    transmit_head();
  });
}

void SlottedMac::transmit_head() {
  TxRing* q = current_queue();
  if (q == nullptr) return;
  // A vetoed head leaves its slot unused.
  if (begin_attempt(*q)) {
    const core::NodeId to = q->front().next_hop;
    // A success lands at the end of the slot (one airtime later).
    end_attempt(*q, channel_.transmission_lost(self_, to, sim_.now()),
                schedule_.slot_duration());
  }
  schedule_next_tx();
}

}  // namespace jtp::mac
