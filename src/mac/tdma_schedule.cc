#include "mac/tdma_schedule.h"

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
}

std::uint64_t TdmaSchedule::slot_at(sim::Time t) const {
  if (t < 0) throw std::invalid_argument("TdmaSchedule: negative time");
  return static_cast<std::uint64_t>(t / slot_s_);
}

sim::Time TdmaSchedule::slot_start(std::uint64_t slot) const {
  return static_cast<sim::Time>(slot) * slot_s_;
}

const std::vector<core::NodeId>& TdmaSchedule::frame_permutation(
    std::uint64_t frame) const {
  if (perm_frame_ == frame && perm_.size() == n_) return perm_;
  // Fisher–Yates keyed by (seed, frame): deterministic, collision-free.
  perm_.resize(n_);
  std::iota(perm_.begin(), perm_.end(), core::NodeId{0});
  std::uint64_t h = sim::splitmix64(seed_ ^ sim::splitmix64(frame));
  for (std::size_t i = n_ - 1; i > 0; --i) {
    h = sim::splitmix64(h);
    std::swap(perm_[i], perm_[h % (i + 1)]);
  }
  perm_frame_ = frame;
  return perm_;
}

core::NodeId TdmaSchedule::owner(std::uint64_t slot) const {
  const std::uint64_t frame = slot / n_;
  const std::size_t idx = static_cast<std::size_t>(slot % n_);
  return frame_permutation(frame)[idx];
}

std::uint64_t TdmaSchedule::next_owned_slot(core::NodeId node,
                                            sim::Time t) const {
  std::uint64_t slot = t <= 0 ? 0 : slot_at(t);
  if (slot_start(slot) < t) ++slot;  // need slot *starting* at or after t
  return next_owned_slot_from(node, slot);
}

std::uint64_t TdmaSchedule::next_owned_slot_from(core::NodeId node,
                                                 std::uint64_t from_slot) const {
  if (node >= n_) throw std::invalid_argument("TdmaSchedule: unknown node");
  // The node owns exactly one slot per frame: scan at most two frames.
  for (std::uint64_t frame = from_slot / n_;; ++frame) {
    const auto& perm = frame_permutation(frame);
    for (std::size_t idx = 0; idx < n_; ++idx) {
      const std::uint64_t s = frame * n_ + idx;
      if (s < from_slot) continue;
      if (perm[idx] == node) return s;
    }
  }
}

}  // namespace jtp::mac
