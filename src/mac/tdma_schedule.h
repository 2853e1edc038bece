// Pseudo-random TDMA schedule (JAVeLEN-style, paper §2).
//
// Time is divided into fixed slots; each frame of N slots assigns every
// node exactly one slot via a pseudo-random permutation keyed by the frame
// index. Properties JTP relies on:
//   * collision-free: one owner per slot, by construction;
//   * fair: every node owns exactly 1/N of the slots;
//   * energy-friendly: idle nodes schedule nothing (radios off).
// The permutation varies per frame so no node is permanently advantaged
// within a frame.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "sim/time.h"

namespace jtp::mac {

class TdmaSchedule {
 public:
  TdmaSchedule(std::size_t n_nodes, double slot_duration_s,
               std::uint64_t seed);

  std::size_t nodes() const { return n_; }
  double slot_duration() const { return slot_s_; }
  double frame_duration() const { return slot_s_ * static_cast<double>(n_); }

  // Slot index containing time t (slot i covers [i·slot, (i+1)·slot)).
  std::uint64_t slot_at(sim::Time t) const;
  sim::Time slot_start(std::uint64_t slot) const;

  // Which node owns a slot.
  core::NodeId owner(std::uint64_t slot) const;

  // First slot whose start time is >= t.
  std::uint64_t first_slot_from(sim::Time t) const;

  // First slot owned by `node` with index >= from_slot.
  std::uint64_t next_owned_slot_from(core::NodeId node,
                                     std::uint64_t from_slot) const;

  // Nominal per-node capacity: one packet per frame.
  double node_capacity_pps() const { return 1.0 / frame_duration(); }

 private:
  // One drawn frame: owner[i] holds slot i of the frame, index_of[v] is
  // the slot node v owns in it.
  struct Frame {
    std::uint64_t id = ~0ULL;
    std::vector<core::NodeId> owner, index_of;
  };
  // The cache entry holding frame f, drawn into it first if needed.
  const Frame& cached_frame(std::uint64_t f) const;

  std::size_t n_;
  double slot_s_;
  std::uint64_t seed_;
  // Slot lookups run once per transmission, so drawn frames are cached,
  // one entry per frame parity. Lookups made at one instant fall in the
  // current frame f or the next one (a node's slot in f may have passed),
  // and f and f + 1 never share an entry, so each frame is drawn once
  // while traffic crosses it. A schedule therefore belongs to one thread,
  // like the rest of its fabric: each shard owns its own.
  mutable Frame frames_[2];
};

}  // namespace jtp::mac
