// Random-waypoint mobility (paper §6.1.2).
//
// Each node repeatedly: picks a random direction, moves a random distance
// (mean 47 m) at its configured speed, then pauses (mean 100 s). Movement
// is discretized: positions are updated every `update_interval_s` so the
// routing layer sees smooth topology change. Legs are clipped to the field.
//
// There is no movement callback: every position update bumps the
// topology's generation counter, and consumers that care (the routing
// view, tests) observe that instead of being pushed a notification.
#pragma once

#include <vector>

#include "phy/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace jtp::phy {

struct MobilityConfig {
  double speed_mps = 1.0;        // 0.1 / 1 / 5 in the paper
  double mean_leg_m = 47.0;
  double mean_pause_s = 100.0;
  double field_m = 300.0;        // clip box
  double update_interval_s = 1.0;
};

class RandomWaypoint {
 public:
  RandomWaypoint(sim::Simulator& sim, Topology& topo, MobilityConfig cfg,
                 sim::Rng rng);

  // Begins moving every node; callbacks fire forever (until sim horizon).
  void start();

  const MobilityConfig& config() const { return cfg_; }

 private:
  struct NodeState {
    Position target;
    bool moving = false;
    sim::Rng rng;  // the node's derived stream, seeded as drawn
  };
  void begin_leg(core::NodeId id);
  void step(core::NodeId id);

  sim::Simulator& sim_;
  Topology& topo_;
  MobilityConfig cfg_;
  std::vector<NodeState> nodes_;
};

}  // namespace jtp::phy
