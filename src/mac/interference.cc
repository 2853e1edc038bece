#include "mac/interference.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <iterator>

namespace jtp::mac {

InterferenceColoring::InterferenceColoring(const phy::Topology& topo,
                                           double range_margin)
    : topo_(topo),
      r_(topo.radio_range()),
      direct_(std::max(range_margin, 1.0) * r_) {
  rebuild();
}

std::uint32_t InterferenceColoring::smallest_free(core::NodeId a) {
  const std::uint64_t stamp = ++stamp_;  // "in use while coloring a"
  const auto mark_below_a = [&](const std::vector<core::NodeId>& list) {
    for (const core::NodeId b : list) {
      if (b >= a) break;  // greedy: only already-colored partners
      used_stamp_[out_.color[b]] = stamp;
    }
  };
  mark_below_a(direct(a));
  for (const core::NodeId w : radio_[a]) mark_below_a(radio_[w]);
  // At most n - 1 partners, so a free color exists below n + 1.
  std::uint32_t c = 0;
  while (used_stamp_[c] == stamp) ++c;
  return c;
}

void InterferenceColoring::rebuild() {
  ++stats_.rebuilds;
  const std::size_t n = topo_.size();
  radio_.resize(n);
  if (direct_ > r_) wide_.resize(n);
  // Query into scratch, then copy: one right-sized allocation per list.
  const auto fill = [this](core::NodeId v, double radius,
                           std::vector<core::NodeId>& list) {
    topo_.within_into(v, radius, fresh_);
    list.assign(fresh_.begin(), fresh_.end());
  };
  for (core::NodeId v = 0; v < n; ++v) {
    fill(v, r_, radio_[v]);
    if (!wide_.empty()) fill(v, direct_, wide_[v]);
  }
  used_stamp_.resize(n + 1, 0);
  dirty_stamp_.resize(n, 0);
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

void InterferenceColoring::requery(core::NodeId m, double radius,
                                   Lists& lists) {
  topo_.within_into(m, radius, fresh_);
  changed_.clear();
  std::set_symmetric_difference(lists[m].begin(), lists[m].end(),
                                fresh_.begin(), fresh_.end(),
                                std::back_inserter(changed_));
  // Lists are symmetric: m's membership in v's list flips with v's in m's.
  for (const core::NodeId v : changed_) {
    auto& list = lists[v];
    const auto it = std::lower_bound(list.begin(), list.end(), m);
    if (it != list.end() && *it == m)
      list.erase(it);
    else
      list.insert(it, m);
  }
  lists[m].swap(fresh_);
}

void InterferenceColoring::mark_dirty(core::NodeId id) {
  if (dirty_stamp_[id] == stats_.repairs) return;
  dirty_stamp_[id] = stats_.repairs;
  heap_.push_back(id);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void InterferenceColoring::mark_dirty(const std::vector<core::NodeId>& ids) {
  for (const core::NodeId id : ids) mark_dirty(id);
}

void InterferenceColoring::update(const std::vector<core::NodeId>& movers) {
  ++stats_.repairs;

  // 1. Re-query each mover, patch the lists its move changed, and seed the
  //    dirty set: a changed margin·R edge (m, v) dirties m and v; a changed
  //    radio edge also dirties their radio neighbors before and after (the
  //    nodes that hold m or v as a witness). v's list before the patch is
  //    its list after it plus or minus m, which is marked anyway.
  for (const core::NodeId m : movers) {
    if (!wide_.empty()) {
      requery(m, direct_, wide_);
      if (!changed_.empty()) {
        mark_dirty(m);
        mark_dirty(changed_);
      }
    }
    requery(m, r_, radio_);
    if (changed_.empty()) continue;
    mark_dirty(m);
    mark_dirty(fresh_);      // m's radio neighbors before the move ...
    mark_dirty(radio_[m]);   // ... and after it (v itself is in one)
    for (const core::NodeId v : changed_) mark_dirty(radio_[v]);
  }

  // 2. Recompute dirty nodes in ascending id order. A node whose color
  //    changed dirties its higher-id partners, whose smallest free color
  //    may have moved with it.
  const auto dirty_above = [this](core::NodeId a,
                                  const std::vector<core::NodeId>& list) {
    for (auto it = std::upper_bound(list.begin(), list.end(), a);
         it != list.end(); ++it)
      mark_dirty(*it);
  };
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
    dirty_above(a, direct(a));
    for (const core::NodeId w : radio_[a]) dirty_above(a, radio_[w]);
  }
  while (!uses_.empty() && uses_.back() == 0) uses_.pop_back();
  out_.colors_used = uses_.size();
  assert(lists_match_topology());
}

#ifndef NDEBUG
bool InterferenceColoring::lists_match_topology() const {
  std::vector<core::NodeId> fresh;
  const auto matches = [&](const Lists& lists, double radius) {
    for (core::NodeId v = 0; v < lists.size(); ++v) {
      topo_.within_into(v, radius, fresh);
      if (fresh != lists[v]) return false;
      for (const core::NodeId u : lists[v])
        if (!std::binary_search(lists[u].begin(), lists[u].end(), v))
          return false;
    }
    return true;
  };
  return matches(radio_, r_) && matches(wide_, direct_);
}
#endif

Coloring color_interference(const phy::Topology& topo, double range_margin) {
  return InterferenceColoring(topo, range_margin).coloring();
}

}  // namespace jtp::mac
