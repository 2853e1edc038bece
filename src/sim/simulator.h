// The simulation executive: clock + event loop.
//
// Components schedule callbacks with schedule()/at() and read the clock via
// now(). run_until() advances virtual time; there is no wall-clock coupling.
//
// schedule()/at() accept any void() callable and store it without heap
// allocation in the steady state (see event_queue.h / small_fn.h); the
// pool occupancy behind that claim is readable via event_pool_stats() /
// callback_spill_stats().
//
// Deterministic event keys. Every event is ordered by (time, tie) where
// tie = (owner << kOwnerShift) | per-owner sequence number. The *owner*
// is a small integer naming the logical entity whose causal stream the
// event belongs to (the sharded network uses node-id + 1; 0 is the
// root/setup stream). While an event runs, context() is set to the
// event's exec_owner, and schedule()/at() draw their tie from that
// stream — so the key of every event is a function of its owner's local
// history alone, never of how streams from different owners interleave
// in one queue. That is what makes the order shard-invariant: partition
// the owners across K simulators and each owner draws the exact same
// keys it would draw in one, so merging the per-shard event sequences
// by (time, tie) reproduces the single-simulator order byte for byte.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace jtp::sim {

class Simulator {
 public:
  // Tie layout: owner in the high bits, per-owner sequence below. 2^40
  // draws per owner before overflow — unreachable in practice.
  static constexpr unsigned kOwnerShift = 40;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` after `delay` seconds (>= 0). Returns a cancellable id.
  // The tie is drawn from the current context's stream and the event
  // inherits the current context as its exec_owner.
  template <typename F>
  EventId schedule(Time delay, F&& fn) {
    if (delay < 0)
      throw std::invalid_argument("Simulator::schedule: negative delay");
    return queue_.push_keyed(now_ + delay, draw_tie(ctx_), ctx_,
                             std::forward<F>(fn));
  }

  // Schedules `fn` at absolute time `at` (>= now()).
  template <typename F>
  EventId at(Time at, F&& fn) {
    if (at < now_)
      throw std::invalid_argument("Simulator::at: time in the past");
    return queue_.push_keyed(at, draw_tie(ctx_), ctx_, std::forward<F>(fn));
  }

  // Schedules with an explicit (tie, exec_owner) key — no draw. This is
  // the cross-shard injection point: the sender's simulator draws the
  // tie, the message carries it, and the receiving simulator files the
  // event under exactly that key.
  template <typename F>
  EventId at_keyed(Time at, std::uint64_t tie, std::uint32_t exec_owner,
                   F&& fn) {
    if (at < now_)
      throw std::invalid_argument("Simulator::at_keyed: time in the past");
    return queue_.push_keyed(at, tie, exec_owner, std::forward<F>(fn));
  }

  // schedule() for a pre-built SmallFn (see Env::schedule): the callable
  // was already type-erased against spill_pool(), so it goes straight
  // into the event slot without re-wrapping.
  EventId schedule_fn(Time delay, SmallFn&& fn) {
    if (delay < 0)
      throw std::invalid_argument("Simulator::schedule_fn: negative delay");
    return queue_.push_keyed_fn(now_ + delay, draw_tie(ctx_), ctx_,
                                std::move(fn));
  }

  // Draws the next tie key from `owner`'s stream. Deterministic: the
  // n-th draw for an owner is always (owner << kOwnerShift) | n.
  std::uint64_t draw_tie(std::uint32_t owner) {
    if (owner >= seq_.size()) seq_.resize(owner + 1, 0);
    return (static_cast<std::uint64_t>(owner) << kOwnerShift) | seq_[owner]++;
  }

  // The owner whose event is currently executing (0 outside the run
  // loop).
  std::uint32_t context() const { return ctx_; }

  void cancel(EventId id) { queue_.cancel(id); }

  // Runs events until the queue drains or the clock passes `t`.
  // Events at exactly `t` are executed. Returns the number of events run.
  std::uint64_t run_until(Time t);

  // Runs until the queue drains.
  std::uint64_t run() { return run_until(std::numeric_limits<Time>::max()); }

  // Pops and executes exactly one event (requires pending()); the
  // sharded runner's horizon loop steps the queue with this.
  void step();

  // Time of the earliest pending event. Requires pending().
  Time next_time() const { return queue_.next_time(); }

  // Drops all pending events and rewinds the clock to zero. Pooled event
  // slots and spill blocks are retained, so a reset-and-rerun reuses the
  // previous run's capacity instead of reallocating it.
  void reset();

  std::uint64_t events_executed() const { return executed_; }
  bool pending() const { return !queue_.empty(); }

  PoolStats event_pool_stats() const { return queue_.slot_stats(); }
  const PoolStats& callback_spill_stats() const {
    return queue_.spill_stats();
  }
  SpillPool& spill_pool() { return queue_.spill(); }

 private:
  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t executed_ = 0;
  std::uint32_t ctx_ = 0;
  std::vector<std::uint64_t> seq_;  // per-owner tie counters
};

}  // namespace jtp::sim
