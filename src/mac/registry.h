// The MAC factory/registry: how link-layer disciplines plug into a
// Network.
//
// A MAC implementation registers once under a mac::Mac value with a
// factory that builds a MacFabric — the per-run object owning one
// MacIface per node plus whatever shared state the discipline needs (the
// TDMA slot schedule, the interference coloring, the CSMA carrier).
// `Network` resolves `NetworkConfig::mac_kind` here and talks only to the
// fabric — adding a MAC is one enum value + one registration; Network,
// Node, the benches, and the scenario language need no edits. The shape
// deliberately mirrors net::TransportRegistry (PR 3).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "mac/mac.h"
#include "phy/channel.h"
#include "phy/energy_model.h"
#include "phy/topology.h"
#include "sim/simulator.h"

namespace jtp::mac {

// Everything a fabric factory may draw on, lent by the Network for the
// lifetime of the run (the fabric holds references, never copies).
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

  virtual MacIface& mac_of(core::NodeId id) = 0;
  const MacIface& mac_of(core::NodeId id) const {
    return const_cast<MacFabric*>(this)->mac_of(id);
  }
  virtual std::size_t size() const = 0;

  // Nominal per-node send capacity under this discipline.
  virtual double node_capacity_pps() const = 0;
  // Nominal per-hop service period (classic TDMA: the n-slot frame) —
  // feeds the transports' RTT estimate.
  virtual double frame_duration_s() const = 0;

  // Slot-reuse accounting; identity values for disciplines without a
  // coloring (see MacStats).
  virtual MacStats stats() const = 0;
};

class MacFactory {
 public:
  virtual ~MacFactory() = default;
  virtual std::unique_ptr<MacFabric> make(const MacContext& ctx) const = 0;
};

struct MacInfo {
  Mac mac = Mac::kTdma;
  std::shared_ptr<const MacFactory> factory;
};

// Process-wide MAC registry. The builtin disciplines are registered on
// first use; additional MACs must be registered before any simulation
// threads start. Entries are immutable once added and hold no per-run
// state, so seed-parallel determinism is unaffected (same discipline as
// net::TransportRegistry).
class MacRegistry {
 public:
  static MacRegistry& instance();

  // Throws std::invalid_argument if `info.mac` is already registered or
  // `info.factory` is null.
  void add(MacInfo info);

  // Throws std::invalid_argument on an unregistered MAC.
  const MacInfo& info(Mac m) const;

  bool registered(Mac m) const;

  // Registered MACs in registration order (builtins first).
  std::vector<Mac> macs() const;

 private:
  MacRegistry();  // registers the builtin tdma/tdma_reuse/csma

  mutable std::mutex mu_;
  std::deque<MacInfo> entries_;  // deque: info() refs stay valid
};

}  // namespace jtp::mac
