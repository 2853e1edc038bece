#include "phy/topology.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/random.h"

namespace jtp::phy {

double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

namespace {

std::int64_t cell_coord(double v, double side) {
  return static_cast<std::int64_t>(std::floor(v / side));
}

// The lowest and the highest corner of the box around `pos`.
std::pair<Position, Position> bounds_of(const std::vector<Position>& pos) {
  Position lo = pos[0], hi = pos[0];
  for (const Position& p : pos) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  return {lo, hi};
}

// Whether the range graph over `pos` (an edge wherever distance <= range)
// is one component, on flat arrays: nodes are counting-sorted into cells
// of side max(range, extent / ceil(sqrt(n))), so there are O(n) cells on
// any field, and a BFS from node 0 scans the 3x3 block around each node.
// At side == range the cells are the grid's.
bool range_graph_connected(const std::vector<Position>& pos, double range) {
  const std::size_t n = pos.size();
  const auto [lo, hi] = bounds_of(pos);
  const double side =
      std::max(range, std::max(hi.x - lo.x, hi.y - lo.y) /
                          std::ceil(std::sqrt(static_cast<double>(n))));
  // One empty border cell on each side: no 3x3 block needs clipping.
  const std::int64_t cx0 = cell_coord(lo.x, side) - 1;
  const std::int64_t cy0 = cell_coord(lo.y, side) - 1;
  const std::int64_t cols = cell_coord(hi.x, side) - cx0 + 2;
  const std::int64_t rows = cell_coord(hi.y, side) - cy0 + 2;
  // Cell c's nodes are order[start[c] .. start[c + 1]).
  std::vector<std::uint32_t> cell(n), order(n), start(cols * rows + 1);
  for (std::size_t i = 0; i < n; ++i) {
    cell[i] = (cell_coord(pos[i].y, side) - cy0) * cols +
              cell_coord(pos[i].x, side) - cx0;
    ++start[cell[i]];
  }
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  for (auto i = static_cast<std::uint32_t>(n); i-- > 0;)
    order[--start[cell[i]]] = i;

  std::vector<char> seen(n, 0);
  std::vector<std::uint32_t> queue{0};
  seen[0] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::int64_t row = cell[u] - cols; row <= cell[u] + cols; row += cols)
      for (auto k = start[row - 1]; k < start[row + 2]; ++k) {
        const std::uint32_t v = order[k];
        if (!seen[v] && distance(pos[u], pos[v]) <= range) {
          seen[v] = 1;
          queue.push_back(v);
        }
      }
  }
  return queue.size() == n;
}

}  // namespace

Topology::Topology(std::size_t n_nodes, double radio_range_m)
    : pos_(n_nodes), range_(radio_range_m), cell_of_(n_nodes),
      index_of_(n_nodes) {
  if (n_nodes == 0) throw std::invalid_argument("Topology: no nodes");
  if (radio_range_m <= 0) throw std::invalid_argument("Topology: bad range");
  // Sized so a consumer syncing every few seconds of simulated mobility
  // (routing refreshes every 5 s, waypoint updates every 1 s) never
  // overflows: even with every node moving, 4 generations per node of
  // slack covers the window.
  move_ring_.assign(std::max<std::size_t>(64, 4 * n_nodes),
                    core::kInvalidNode);
  regrid();  // every node starts at the origin
}

std::int64_t Topology::cell_at(const Position& p) const {
  const std::int64_t cx = cell_coord(p.x, side_) - cx0_;
  const std::int64_t cy = cell_coord(p.y, side_) - cy0_;
  if (cx < 0 || cy < 0 || cx >= cols_ || cy >= rows_) return -1;
  return cy * cols_ + cx;
}

void Topology::file(core::NodeId id, std::int64_t cell) {
  cell_of_[id] = static_cast<std::uint32_t>(cell);
  index_of_[id] = static_cast<std::uint32_t>(cells_[cell].size());
  cells_[cell].push_back(id);
}

void Topology::regrid() {
  const auto [lo, hi] = bounds_of(pos_);
  // Slack of a quarter of the extent plus one range per side: a node that
  // leaves the box again grows it by at least that much.
  const double pad_x = (hi.x - lo.x) / 4 + range_;
  const double pad_y = (hi.y - lo.y) / 4 + range_;
  const auto max_cells = static_cast<std::int64_t>(4 * pos_.size() + 256);
  for (side_ = range_;; side_ *= 2) {
    cx0_ = cell_coord(lo.x - pad_x, side_);
    cy0_ = cell_coord(lo.y - pad_y, side_);
    cols_ = cell_coord(hi.x + pad_x, side_) - cx0_ + 1;
    rows_ = cell_coord(hi.y + pad_y, side_) - cy0_ + 1;
    if (cols_ * rows_ <= max_cells) break;
  }
  cells_.assign(cols_ * rows_, {});
  for (core::NodeId id = 0; id < pos_.size(); ++id) file(id, cell_at(pos_[id]));
}

void Topology::set_position(core::NodeId id, Position p) {
  pos_.at(id) = p;
  ++generation_;
  move_ring_[generation_ % move_ring_.size()] = id;
  const std::int64_t cell = cell_at(p);
  if (cell < 0) {
    regrid();  // the box grows: every node is refiled
  } else if (cell != cell_of_[id]) {
    // Swap-pop out of the old cell: cells are unordered (queries sort).
    auto& old = cells_[cell_of_[id]];
    old[index_of_[id]] = old.back();
    index_of_[old.back()] = index_of_[id];
    old.pop_back();
    file(id, cell);
  }
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
  const auto k = static_cast<std::int64_t>(std::ceil(radius / side_));
  const std::int64_t cx = cell_of_[id] % cols_, cy = cell_of_[id] / cols_;
  const std::int64_t x_lo = std::max<std::int64_t>(cx - k, 0);
  const std::int64_t x_hi = std::min(cx + k, cols_ - 1);
  for (std::int64_t y = std::max<std::int64_t>(cy - k, 0);
       y <= std::min(cy + k, rows_ - 1); ++y)
    for (std::int64_t c = y * cols_ + x_lo; c <= y * cols_ + x_hi; ++c)
      for (const core::NodeId j : cells_[c])
        if (j != id && distance(p, pos_[j]) <= radius) out.push_back(j);
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
  return range_graph_connected(pos_, range_);
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
  Topology t(n, range_m);
  std::vector<Position> draw(n);
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    for (Position& p : draw)
      p = {rng.uniform(0.0, field_m), rng.uniform(0.0, field_m)};
    if (!range_graph_connected(draw, range_m)) continue;
    for (core::NodeId i = 0; i < n; ++i) t.set_position(i, draw[i]);
    return t;
  }
  throw std::runtime_error(
      "Topology::random_connected: no connected placement found; "
      "shrink the field or raise the range");
}

}  // namespace jtp::phy
