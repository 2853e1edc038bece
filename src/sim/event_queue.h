// Discrete-event queue: pooled event slots indexed by a 4-ary min-heap.
//
// Events are ordered by (time, tie-key). push() draws the tie from an
// internal counter, so same-instant events fire in insertion order
// (FIFO) — deterministic across runs and platforms. push_keyed() lets
// the caller supply the tie explicitly; the sharded runner uses this to
// give every event a key that is independent of which shard computes it
// (owner-id ‖ per-owner sequence number), so the per-node execution
// order is reproduced exactly for any shard count. Each keyed event
// also carries an `exec_owner` tag that the Simulator restores as the
// scheduling context while the callback runs.
//
// Layout: every pending event lives in a slot of a freelist-recycled
// vector; the heap orders slot indices by (time, fifo#). Slots record
// their heap position, so cancel-by-id removes the event from the heap
// in O(log n) and recycles the slot immediately — there are no
// tombstones to drift past on pop, and no lazy sweep. EventIds carry a
// per-slot generation so a stale id (event already fired or cancelled)
// is recognized and ignored even after the slot has been reused.
// Callbacks are SmallFn (see small_fn.h): inline storage for every
// in-tree closure, pool-backed spill for larger ones — the steady-state
// schedule/cancel/pop cycle performs no heap allocation.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/small_fn.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace jtp::sim {

// Handle used to cancel a pending event. Encodes (generation, slot);
// cancelling an already-fired or unknown id is a harmless no-op.
using EventId = std::uint64_t;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() { clear(); }

  // Enqueues `fn` to fire at absolute time `at`. Returns a cancellation id.
  // The tie key is drawn from the internal FIFO counter (insertion order).
  template <typename F>
  EventId push(Time at, F&& fn) {
    return push_keyed(at, next_fifo_, 0, std::forward<F>(fn));
  }

  // Enqueues `fn` at (at, tie) with an explicit tie key. Keys must be
  // unique per (at, tie) pair for the order to be deterministic; the
  // Simulator guarantees this by deriving ties from per-owner counters.
  template <typename F>
  EventId push_keyed(Time at, std::uint64_t tie, std::uint32_t exec_owner,
                     F&& fn) {
    const std::uint32_t idx = acquire_slot();
    Slot& s = slots_[idx];
    s.fn = SmallFn(std::forward<F>(fn), spill_);
    s.exec_owner = exec_owner;
    ++next_fifo_;
    heap_insert(HeapNode{at, tie, idx});
    return make_id(idx, s.gen);
  }

  // Same, for an already-built SmallFn (which must have been constructed
  // against this queue's spill()). A dedicated overload, not the
  // template: sizeof(SmallFn) > SmallFn::kInlineBytes, so the template
  // would wrap it in a second, spilled SmallFn.
  EventId push_keyed_fn(Time at, std::uint64_t tie, std::uint32_t exec_owner,
                        SmallFn&& fn) {
    const std::uint32_t idx = acquire_slot();
    Slot& s = slots_[idx];
    s.fn = std::move(fn);
    s.exec_owner = exec_owner;
    ++next_fifo_;
    heap_insert(HeapNode{at, tie, idx});
    return make_id(idx, s.gen);
  }

  // Removes a pending event. Cancelling an already-fired, already-
  // cancelled, or unknown id is a harmless no-op.
  void cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Time of the earliest live event. Requires !empty().
  Time next_time() const {
    assert(!heap_.empty());
    return heap_[0].at;
  }

  // Pops and returns the earliest live event. Requires !empty().
  struct Event {
    Time at{};
    EventId id{};
    std::uint32_t exec_owner = 0;
    SmallFn fn;
  };
  Event pop();

  // Drops every pending event; slot and spill capacity is retained for
  // reuse (Simulator::reset).
  void clear();

  std::uint64_t total_scheduled() const { return next_fifo_; }

  // Freelist accounting for the event-slot pool and the callback spill
  // pool; the zero-allocation tests pin steady state with these.
  PoolStats slot_stats() const;
  const PoolStats& spill_stats() const { return spill_.stats(); }

  // The spill pool callers must build SmallFns against before handing
  // them to push_keyed_fn (see small_fn.h's lifetime contract).
  SpillPool& spill() { return spill_; }

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  // The (time, tie-key) ordering key lives in the heap nodes themselves:
  // sift comparisons stay inside the heap array (no per-compare
  // indirection into the slot pool), which is what keeps a million-event
  // heap fast. Slots hold the callback plus the bookkeeping cancel needs.
  struct HeapNode {
    Time at{};
    std::uint64_t key = 0;
    std::uint32_t idx = 0;  // slot index
  };

  struct Slot {
    SmallFn fn;
    std::uint32_t heap_pos = kNpos;    // kNpos while free
    std::uint32_t gen = 0;             // bumped on each release
    std::uint32_t next_free = kNpos;   // freelist link while free
    std::uint32_t exec_owner = 0;      // restored as context on pop
  };

  static EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | idx;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  // (time, key) strict weak order; key ties are impossible.
  static bool before(const HeapNode& a, const HeapNode& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }

  void heap_insert(const HeapNode& n);
  void heap_remove(std::uint32_t pos);
  void sift_up(std::uint32_t pos, HeapNode n);
  void sift_down(std::uint32_t pos, HeapNode n);
  void place(std::uint32_t pos, const HeapNode& n) {
    heap_[pos] = n;
    slots_[n.idx].heap_pos = pos;
  }

  std::vector<Slot> slots_;
  std::vector<HeapNode> heap_;  // 4-ary min-heap keyed by (at, key)
  std::uint32_t free_head_ = kNpos;
  std::uint64_t next_fifo_ = 0;
  SpillPool spill_;

  std::size_t slots_high_water_ = 0;
  std::uint64_t slot_reuses_ = 0;
};

}  // namespace jtp::sim
