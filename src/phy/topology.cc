#include "phy/topology.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/random.h"

namespace jtp::phy {

double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Topology::Topology(std::size_t n_nodes, double radio_range_m)
    : pos_(n_nodes), range_(radio_range_m), cell_key_(n_nodes) {
  if (n_nodes == 0) throw std::invalid_argument("Topology: no nodes");
  if (radio_range_m <= 0) throw std::invalid_argument("Topology: bad range");
  // Sized so a consumer syncing every few seconds of simulated mobility
  // (routing refreshes every 5 s, waypoint updates every 1 s) never
  // overflows: even with every node moving, 4 generations per node of
  // slack covers the window.
  move_ring_.assign(std::max<std::size_t>(64, 4 * n_nodes),
                    core::kInvalidNode);
  const CellKey origin = cell_of(Position{});
  auto& cell = cells_[origin];
  cell.reserve(n_nodes);
  for (core::NodeId id = 0; id < n_nodes; ++id) {
    cell.push_back(id);
    cell_key_[id] = origin;
  }
}

Topology::CellKey Topology::pack_cell(std::int64_t cx, std::int64_t cy) {
  // The 32-bit wrap of the packed halves would only collide for positions
  // 2^32 cells apart.
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

Topology::CellKey Topology::cell_of(const Position& p) const {
  // floor() keeps negative coordinates in distinct cells.
  return pack_cell(static_cast<std::int64_t>(std::floor(p.x / range_)),
                   static_cast<std::int64_t>(std::floor(p.y / range_)));
}

void Topology::set_position(core::NodeId id, Position p) {
  pos_.at(id) = p;
  ++generation_;
  move_ring_[generation_ % move_ring_.size()] = id;
  const CellKey to = cell_of(p);
  const CellKey from = cell_key_[id];
  if (to == from) return;
  auto& old_cell = cells_[from];
  // Swap-pop: cell vectors are unordered (queries sort their results).
  const auto it = std::find(old_cell.begin(), old_cell.end(), id);
  *it = old_cell.back();
  old_cell.pop_back();
  if (old_cell.empty()) cells_.erase(from);
  cells_[to].push_back(id);
  cell_key_[id] = to;
}

bool Topology::moved_since(std::uint64_t gen,
                           std::vector<core::NodeId>& out) const {
  out.clear();
  if (gen > generation_) return false;  // window from the future: no answer
  const std::uint64_t span = generation_ - gen;
  if (span == 0) return true;
  if (span > move_ring_.size()) return false;  // ring overflowed the window
  for (std::uint64_t g = gen + 1; g <= generation_; ++g)
    out.push_back(move_ring_[g % move_ring_.size()]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return true;
}

bool Topology::in_range(core::NodeId a, core::NodeId b) const {
  if (a == b) return false;
  return distance(pos_.at(a), pos_.at(b)) <= range_;
}

void Topology::within_into(core::NodeId id, double radius,
                           std::vector<core::NodeId>& out) const {
  out.clear();
  const Position& p = pos_.at(id);
  const auto k = static_cast<std::int64_t>(std::ceil(radius / range_));
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / range_));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / range_));
  for (std::int64_t dx = -k; dx <= k; ++dx) {
    for (std::int64_t dy = -k; dy <= k; ++dy) {
      const auto it = cells_.find(pack_cell(cx + dx, cy + dy));
      if (it == cells_.end()) continue;
      for (const core::NodeId j : it->second)
        if (j != id && distance(p, pos_[j]) <= radius) out.push_back(j);
    }
  }
  std::sort(out.begin(), out.end());
}

void Topology::neighbors_into(core::NodeId id,
                              std::vector<core::NodeId>& out) const {
  within_into(id, range_, out);
}

std::vector<core::NodeId> Topology::neighbors(core::NodeId id) const {
  std::vector<core::NodeId> out;
  neighbors_into(id, out);
  return out;
}

bool Topology::connected() const {
  std::vector<bool> seen(pos_.size(), false);
  std::vector<core::NodeId> queue;
  std::vector<core::NodeId> nbrs;
  queue.reserve(pos_.size());
  queue.push_back(0);
  seen[0] = true;
  std::size_t visited = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const core::NodeId u = queue[head];
    neighbors_into(u, nbrs);
    for (core::NodeId v : nbrs) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        queue.push_back(v);
      }
    }
  }
  return visited == pos_.size();
}

Topology Topology::linear(std::size_t n, double spacing_m, double range_m) {
  if (spacing_m >= range_m)
    throw std::invalid_argument("Topology::linear: spacing >= range");
  // Keep the chain strictly multi-hop: the range must not skip a neighbor.
  if (2 * spacing_m <= range_m)
    throw std::invalid_argument(
        "Topology::linear: range covers two hops; chain would short-cut");
  Topology t(n, range_m);
  for (std::size_t i = 0; i < n; ++i)
    t.set_position(i, {static_cast<double>(i) * spacing_m, 0.0});
  return t;
}

Topology Topology::random_connected(std::size_t n, double field_m,
                                    double range_m, sim::Rng& rng,
                                    int max_tries) {
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    Topology t(n, range_m);
    for (std::size_t i = 0; i < n; ++i)
      t.set_position(i, {rng.uniform(0.0, field_m), rng.uniform(0.0, field_m)});
    if (t.connected()) return t;
  }
  throw std::runtime_error(
      "Topology::random_connected: no connected placement found; "
      "shrink the field or raise the range");
}

}  // namespace jtp::phy
