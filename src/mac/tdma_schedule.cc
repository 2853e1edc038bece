#include "mac/tdma_schedule.h"

#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/random.h"

namespace jtp::mac {

TdmaSchedule::TdmaSchedule(std::size_t n_nodes, double slot_duration_s,
                           std::uint64_t seed)
    : n_(n_nodes), slot_s_(slot_duration_s), seed_(seed) {
  if (n_nodes == 0) throw std::invalid_argument("TdmaSchedule: no nodes");
  if (slot_duration_s <= 0)
    throw std::invalid_argument("TdmaSchedule: non-positive slot");
  for (Frame& e : frames_) {
    e.owner.resize(n_);
    e.index_of.resize(n_);
  }
}

std::uint64_t TdmaSchedule::slot_at(sim::Time t) const {
  if (t < 0) throw std::invalid_argument("TdmaSchedule: negative time");
  return static_cast<std::uint64_t>(t / slot_s_);
}

sim::Time TdmaSchedule::slot_start(std::uint64_t slot) const {
  return static_cast<sim::Time>(slot) * slot_s_;
}

const TdmaSchedule::Frame& TdmaSchedule::cached_frame(std::uint64_t f) const {
  Frame& e = frames_[f & 1];
  if (e.id == f) return e;
  // Fisher–Yates keyed by (seed, frame): deterministic, collision-free.
  // Step i fixes position i for good, so its inverse is written in step.
  std::iota(e.owner.begin(), e.owner.end(), core::NodeId{0});
  std::uint64_t h = sim::splitmix64(seed_ ^ sim::splitmix64(f));
  for (std::size_t i = n_ - 1; i > 0; --i) {
    h = sim::splitmix64(h);
    std::swap(e.owner[i], e.owner[h % (i + 1)]);
    e.index_of[e.owner[i]] = static_cast<core::NodeId>(i);
  }
  e.index_of[e.owner[0]] = 0;
  e.id = f;
#ifndef NDEBUG
  for (core::NodeId v = 0; v < n_; ++v) assert(e.owner[e.index_of[v]] == v);
#endif
  return e;
}

core::NodeId TdmaSchedule::owner(std::uint64_t slot) const {
  return cached_frame(slot / n_).owner[slot % n_];
}

std::uint64_t TdmaSchedule::first_slot_from(sim::Time t) const {
  std::uint64_t slot = t <= 0 ? 0 : slot_at(t);
  if (slot_start(slot) < t) ++slot;  // need slot *starting* at or after t
  return slot;
}

std::uint64_t TdmaSchedule::next_owned_slot_from(core::NodeId node,
                                                 std::uint64_t from_slot) const {
  if (node >= n_) throw std::invalid_argument("TdmaSchedule: unknown node");
  // The node owns exactly one slot per frame: this frame's, if it has not
  // passed, else the next frame's.
  const std::uint64_t f = from_slot / n_;
  const std::uint64_t s = f * n_ + cached_frame(f).index_of[node];
  return s >= from_slot ? s : (f + 1) * n_ + cached_frame(f + 1).index_of[node];
}

}  // namespace jtp::mac
