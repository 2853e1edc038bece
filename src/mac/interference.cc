#include "mac/interference.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace jtp::mac {

namespace {

// Cell key packing for the candidate grid, tolerant of negative
// coordinates (mirrors phy::Topology's scheme: two offset 32-bit halves).
std::uint64_t pack_cell(std::int64_t cx, std::int64_t cy) {
  const auto ux = static_cast<std::uint64_t>(cx + 0x40000000LL);
  const auto uy = static_cast<std::uint64_t>(cy + 0x40000000LL);
  return (ux << 32) | (uy & 0xffffffffULL);
}

// Relative slack on reach-radius tests: distances are rounded, so a
// hidden-terminal partner (two hops of at most R) can sit ulps past 2R.
constexpr double kSlack = 1e-9;

}  // namespace

InterferenceColoring::InterferenceColoring(const phy::Topology& topo,
                                           double range_margin)
    : topo_(topo),
      r_(topo.radio_range()),
      direct_(std::max(range_margin, 1.0) * r_),
      reach_(std::max(direct_, 2.0 * r_)) {
  rebuild();
}

InterferenceColoring::CellKey InterferenceColoring::cell_of(
    const phy::Position& p) const {
  return pack_cell(static_cast<std::int64_t>(std::floor(p.x / reach_)),
                   static_cast<std::int64_t>(std::floor(p.y / reach_)));
}

template <typename F>
void InterferenceColoring::for_each_candidate(const phy::Position& p,
                                              F&& f) const {
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / reach_));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / reach_));
  for (std::int64_t dx = -1; dx <= 1; ++dx)
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      const auto it = cells_.find(pack_cell(cx + dx, cy + dy));
      if (it == cells_.end()) continue;
      for (const core::NodeId b : it->second) f(b);
    }
}

template <typename F>
void InterferenceColoring::for_each_candidate(const phy::Position& p,
                                              const phy::Position& q,
                                              F&& f) const {
  for_each_candidate(p, f);
  if (cell_of(q) != cell_of(p)) for_each_candidate(q, f);
}

bool InterferenceColoring::conflicts(core::NodeId a, core::NodeId b) const {
  const double d = phy::distance(topo_.position(a), topo_.position(b));
  if (d <= direct_) return true;
  if (d > reach_ * (1.0 + kSlack)) return false;  // no witness can span it
  for (const core::NodeId w : witnesses_)  // neighbors of a, within R
    if (w != b && phy::distance(topo_.position(w), topo_.position(b)) <= r_)
      return true;
  return false;
}

std::uint32_t InterferenceColoring::smallest_free(core::NodeId a) {
  topo_.neighbors_into(a, witnesses_);
  const std::uint64_t stamp = ++stamp_;  // "in use while coloring a"
  for_each_candidate(topo_.position(a), [&](core::NodeId b) {
    if (b >= a) return;  // greedy: only already-colored partners
    if (!conflicts(a, b)) return;
    const std::uint32_t c = out_.color[b];
    if (c >= used_stamp_.size()) used_stamp_.resize(c + 1, 0);
    used_stamp_[c] = stamp;
  });
  std::uint32_t c = 0;
  while (c < used_stamp_.size() && used_stamp_[c] == stamp) ++c;
  return c;
}

void InterferenceColoring::rebuild() {
  ++stats_.rebuilds;
  const std::size_t n = topo_.size();
  cells_.clear();
  cells_.reserve(n);
  cell_key_.resize(n);
  snap_.resize(n);
  for (core::NodeId id = 0; id < n; ++id) {
    snap_[id] = topo_.position(id);
    cell_key_[id] = cell_of(snap_[id]);
    cells_[cell_key_[id]].push_back(id);
  }
  out_.color.assign(n, 0);
  uses_.clear();
  for (core::NodeId a = 0; a < n; ++a) {
    const std::uint32_t c = smallest_free(a);
    out_.color[a] = c;
    if (c >= uses_.size()) uses_.resize(c + 1, 0);
    ++uses_[c];
  }
  out_.colors_used = uses_.size();
}

bool InterferenceColoring::adjacency_changed(core::NodeId a,
                                             core::NodeId b) const {
  const auto adjacency = [this](const phy::Position& p,
                                const phy::Position& q) {
    const double d = phy::distance(p, q);
    return (d <= r_ ? 1 : 0) | (d <= direct_ ? 2 : 0);
  };
  return adjacency(snap_[a], snap_[b]) !=
         adjacency(topo_.position(a), topo_.position(b));
}

void InterferenceColoring::mark_dirty(core::NodeId id) {
  if (dirty_stamp_[id] == stats_.repairs) return;
  dirty_stamp_[id] = stats_.repairs;
  heap_.push_back(id);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void InterferenceColoring::update(const std::vector<core::NodeId>& movers) {
  ++stats_.repairs;
  dirty_stamp_.resize(topo_.size(), 0);

  // 1. File each mover under its new cell too, keeping the old entry until
  //    seeding is done: a block scan then finds every node whose old *or*
  //    new position lies in the block, movers included.
  for (const core::NodeId m : movers) {
    const CellKey to = cell_of(topo_.position(m));
    if (to != cell_key_[m]) cells_[to].push_back(m);
  }

  // 2. Changed-edge filter, then seeds. An edge that existed before lies
  //    in the block around the mover's old position, one that exists now
  //    in the block around its new one. An edge-changing mover dirties
  //    every node within reach of its old position in the old layout or
  //    of its new position in the new one.
  const double seed_reach = reach_ * (1.0 + kSlack);
  for (const core::NodeId m : movers) {
    const phy::Position& was = snap_[m];
    const phy::Position& now = topo_.position(m);
    bool changed = false;
    for_each_candidate(was, now, [&](core::NodeId v) {
      changed = changed || (v != m && adjacency_changed(m, v));
    });
    if (!changed) continue;
    for_each_candidate(was, now, [&](core::NodeId x) {
      if (phy::distance(snap_[x], was) <= seed_reach ||
          phy::distance(topo_.position(x), now) <= seed_reach)
        mark_dirty(x);
    });
  }

  // 3. Drop the movers' old grid entries and refresh their snapshots.
  for (const core::NodeId m : movers) {
    const CellKey to = cell_of(topo_.position(m));
    if (to != cell_key_[m]) {
      auto& cell = cells_[cell_key_[m]];
      *std::find(cell.begin(), cell.end(), m) = cell.back();
      cell.pop_back();
      cell_key_[m] = to;
    }
    snap_[m] = topo_.position(m);
  }

  // 4. Recompute dirty nodes in ascending id order. A node whose color
  //    changed dirties its higher-id partners, whose smallest free color
  //    may have moved with it.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const core::NodeId a = heap_.back();
    heap_.pop_back();
    ++stats_.examined;
    const std::uint32_t c = smallest_free(a);
    const std::uint32_t was = out_.color[a];
    if (c == was) continue;
    out_.color[a] = c;
    --uses_[was];
    if (c >= uses_.size()) uses_.resize(c + 1, 0);
    ++uses_[c];
    for_each_candidate(topo_.position(a), [&](core::NodeId b) {
      if (b > a && conflicts(a, b)) mark_dirty(b);
    });
  }
  while (!uses_.empty() && uses_.back() == 0) uses_.pop_back();
  out_.colors_used = uses_.size();
}

Coloring color_interference(const phy::Topology& topo, double range_margin) {
  return InterferenceColoring(topo, range_margin).coloring();
}

}  // namespace jtp::mac
