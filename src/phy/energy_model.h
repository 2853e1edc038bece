// Radio energy accounting (paper §6.1, "Energy per delivered bit").
//
// A monitor at the link layer charges, per transport-layer packet
// transmission, E = P_tx · bits/datarate at the transmitter and
// E = P_rx · bits/datarate at the receiver. Following the paper, network
// maintenance (routing beacons etc.) is excluded from the per-bit metric;
// JAVeLEN's TDMA keeps radios off outside scheduled slots, so idle energy
// is negligible by construction and is not modelled.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace jtp::phy {

struct RadioConfig {
  double datarate_bps = 250e3;  // low-power radio class
  double tx_power_w = 0.075;
  double rx_power_w = 0.030;
  // Fixed per-transmission radio overhead (wake-up, synchronization,
  // preamble), charged at the respective power on both sides. In
  // ultra-low-power radios this dominates short frames — it is why the
  // paper says an ACK "consumes roughly as much energy as a data
  // transmission" even though it carries fewer bytes.
  double fixed_overhead_s = 0.020;
};

class EnergyModel {
 public:
  EnergyModel(std::size_t n_nodes, RadioConfig cfg = {});

  // Airtime of a packet of `bits` at the configured datarate.
  double airtime_s(double bits) const { return bits / cfg_.datarate_bps; }

  // Energy one transmission of `bits` costs the sender.
  core::Joules tx_energy(double bits) const {
    return cfg_.tx_power_w * (cfg_.fixed_overhead_s + airtime_s(bits));
  }
  // Energy one reception of `bits` costs the receiver.
  core::Joules rx_energy(double bits) const {
    return cfg_.rx_power_w * (cfg_.fixed_overhead_s + airtime_s(bits));
  }

  // Charging: updates per-node and total tallies.
  void charge_tx(core::NodeId node, double bits);
  void charge_rx(core::NodeId node, double bits);

  core::Joules node_energy(core::NodeId node) const { return per_node_.at(node); }
  core::Joules total_energy() const { return total_; }
  const std::vector<core::Joules>& per_node() const { return per_node_; }
  const RadioConfig& config() const { return cfg_; }

  void reset();

 private:
  RadioConfig cfg_;
  std::vector<core::Joules> per_node_;
  core::Joules total_ = 0.0;
};

}  // namespace jtp::phy
