#include "phy/mobility.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jtp::phy {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

RandomWaypoint::RandomWaypoint(sim::Simulator& sim, Topology& topo,
                               MobilityConfig cfg, sim::Rng rng)
    : sim_(sim), topo_(topo), cfg_(cfg) {
  if (cfg.speed_mps <= 0) throw std::invalid_argument("RandomWaypoint: speed");
  if (cfg.update_interval_s <= 0)
    throw std::invalid_argument("RandomWaypoint: update interval");
  nodes_.reserve(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i)
    nodes_.push_back({Position{}, false, rng.derive("rwp", i)});
}

void RandomWaypoint::start() {
  for (core::NodeId id = 0; id < nodes_.size(); ++id) {
    // Stagger initial pauses so nodes don't move in lock-step.
    const double first_pause =
        nodes_[id].rng.exponential(std::max(1.0, cfg_.mean_pause_s / 4));
    sim_.schedule(first_pause, [this, id] { begin_leg(id); });
  }
}

void RandomWaypoint::begin_leg(core::NodeId id) {
  auto& st = nodes_[id];
  const double angle = st.rng.uniform(0.0, 2.0 * kPi);
  const double leg = st.rng.exponential(cfg_.mean_leg_m);
  const Position cur = topo_.position(id);
  Position tgt{cur.x + leg * std::cos(angle), cur.y + leg * std::sin(angle)};
  tgt.x = std::clamp(tgt.x, 0.0, cfg_.field_m);
  tgt.y = std::clamp(tgt.y, 0.0, cfg_.field_m);
  st.target = tgt;
  st.moving = true;
  sim_.schedule(cfg_.update_interval_s, [this, id] { step(id); });
}

void RandomWaypoint::step(core::NodeId id) {
  auto& st = nodes_[id];
  if (!st.moving) return;
  const Position cur = topo_.position(id);
  const double remaining = distance(cur, st.target);
  const double hop = cfg_.speed_mps * cfg_.update_interval_s;
  if (remaining <= hop) {
    topo_.set_position(id, st.target);
    st.moving = false;
    const double pause = st.rng.exponential(cfg_.mean_pause_s);
    sim_.schedule(pause, [this, id] { begin_leg(id); });
    return;
  }
  const double fx = (st.target.x - cur.x) / remaining;
  const double fy = (st.target.y - cur.y) / remaining;
  topo_.set_position(id, {cur.x + fx * hop, cur.y + fy * hop});
  sim_.schedule(cfg_.update_interval_s, [this, id] { step(id); });
}

}  // namespace jtp::phy
