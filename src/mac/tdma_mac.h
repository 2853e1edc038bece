// Classic TDMA MAC instance (one per node) — the paper's discipline.
//
// Binds the shared slot-timed transmit loop (mac/mac_base.h) to the
// JAVeLEN-style pseudo-random TdmaSchedule: every node owns exactly one
// slot per n-slot frame, so per-node capacity is 1/(n·slot). The first
// Mac value and the default everywhere — committed baselines are pinned
// to its behaviour.
#pragma once

#include <cstdint>

#include "mac/mac_base.h"
#include "mac/tdma_schedule.h"

namespace jtp::mac {

class TdmaMac final : public SlottedMac {
 public:
  TdmaMac(sim::Simulator& sim, const TdmaSchedule& schedule,
          phy::Channel& channel, phy::EnergyModel& energy, core::NodeId self,
          MacConfig cfg = {});

 protected:
  std::uint64_t slot_at(sim::Time t) override { return schedule_.slot_at(t); }
  sim::Time slot_start(std::uint64_t slot) override {
    return schedule_.slot_start(slot);
  }
  double slot_duration() override { return schedule_.slot_duration(); }
  std::uint64_t next_owned_slot_from(std::uint64_t from_slot) override {
    return schedule_.next_owned_slot_from(self_, from_slot);
  }

 private:
  const TdmaSchedule& schedule_;
};

}  // namespace jtp::mac
