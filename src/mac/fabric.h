// The MAC plane of one run: the fabric a Network builds from its
// mac::Mac value.
//
// A fabric owns one MacIface per node plus whatever shared state the
// discipline needs. There are two: the slotted fabric (one SlotSchedule,
// identity-colored for tdma, interference-colored for tdma_reuse; see
// mac/slotted.h) and the CSMA fabric (the shared carrier). `Network`
// builds one with make_fabric(NetworkConfig::mac_kind, ...) and talks only
// to the fabric. make_fabric is one switch over Mac with no default, so
// -Wswitch (an error in this build) names it when a Mac value is added.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mac/mac.h"
#include "phy/channel.h"
#include "phy/energy_model.h"
#include "phy/topology.h"
#include "sim/simulator.h"

namespace jtp::mac {

// Everything a fabric may draw on, lent by the Network for the lifetime
// of the run (the fabric holds references, never copies).
struct MacContext {
  sim::Simulator& sim;
  const phy::Topology& topo;
  phy::Channel& channel;
  phy::EnergyModel& energy;
  double slot_duration_s = 0.0;  // the scenario's slot / backoff unit
  std::uint64_t seed = 0;        // the run's master seed
  MacConfig config;
};

// One run's MAC plane: a MacIface per node plus the discipline's nominal
// capacity figures, which the transport layer uses to derive rate caps
// and RTT-based timeouts (PathInfo).
class MacFabric {
 public:
  virtual ~MacFabric() = default;

  MacIface& mac_of(core::NodeId id) { return *macs_.at(id); }
  const MacIface& mac_of(core::NodeId id) const { return *macs_.at(id); }
  std::size_t size() const { return macs_.size(); }

  // Nominal per-node send capacity under this discipline.
  virtual double node_capacity_pps() const = 0;
  // Nominal per-hop service period (classic TDMA: the n-slot frame) —
  // feeds the transports' RTT estimate.
  virtual double frame_duration_s() const = 0;

  // Slot-reuse accounting; identity values for disciplines without a
  // coloring (see MacStats).
  virtual MacStats stats() const = 0;

 protected:
  // One MAC per node, indexed by node id; each fabric fills it.
  std::vector<std::unique_ptr<MacIface>> macs_;
};

// Builds `m`'s fabric over `ctx`.
std::unique_ptr<MacFabric> make_fabric(Mac m, const MacContext& ctx);

}  // namespace jtp::mac
