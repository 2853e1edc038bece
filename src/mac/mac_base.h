// Shared MAC machinery: the bounded transmit queues, hook plumbing, and
// attempt/drop counters every MAC uses, plus the slot-timed transmit
// loop the TDMA family shares.
//
// MacBase owns what is common to all disciplines — two fixed-capacity
// FIFO rings (control ahead of data), the pre-xmit/deliver/trace hooks,
// the LinkEstimator, and the counter set that is the conformance
// contract. How and when the head of the queue actually hits the air is
// the discipline: SlottedMac implements the "transmit the head in the
// next owned slot" loop against abstract slot geometry (classic TDMA
// binds it to the n-slot frame, spatial-reuse TDMA to the colors-slot
// frame); CsmaMac derives from MacBase directly with a contention cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/mac.h"
#include "phy/channel.h"
#include "phy/energy_model.h"
#include "sim/simulator.h"

namespace jtp::mac {

class MacBase : public MacIface {
 public:
  void set_pre_xmit(PreXmitHook hook) override { pre_xmit_ = std::move(hook); }
  void set_deliver(DeliverHook hook) override { deliver_ = std::move(hook); }
  void set_attempt_trace(AttemptBudgetTrace t) override {
    attempt_trace_ = std::move(t);
  }

  bool enqueue(core::PacketPtr p, core::NodeId next_hop) override;

  core::NodeId self() const override { return self_; }
  LinkEstimator& estimator() override { return estimator_; }
  const LinkEstimator& estimator() const override { return estimator_; }
  std::size_t queue_length() const override {
    return queue_.size() + ctrl_queue_.size();
  }

  std::uint64_t queue_drops() const override { return queue_drops_; }
  std::uint64_t attempt_exhausted_drops() const override {
    return attempt_drops_;
  }
  std::uint64_t energy_budget_drops() const override { return budget_drops_; }
  std::uint64_t transmissions() const override { return transmissions_; }
  std::uint64_t deliveries() const override { return deliveries_; }

 protected:
  MacBase(sim::Simulator& sim, phy::Channel& channel, phy::EnergyModel& energy,
          core::NodeId self, const MacConfig& cfg);

  struct Entry {
    core::PacketPtr packet;
    core::NodeId next_hop = core::kInvalidNode;
    int attempts_done = 0;
    int max_attempts = 0;  // fixed on first attempt
  };

  // Fixed-capacity FIFO ring: the transmit queue's bound is a protocol
  // parameter (queue_capacity_packets), so the storage is allocated once,
  // at the first push, and enqueue/dequeue never touch the heap after it.
  class TxRing {
   public:
    explicit TxRing(std::size_t capacity) : capacity_(capacity) {}
    bool full() const { return size_ == capacity_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    Entry& front() { return buf_[head_]; }
    void push_back(Entry&& e) {
      if (buf_.empty()) buf_.resize(capacity_);
      buf_[(head_ + size_) % capacity_] = std::move(e);
      ++size_;
    }
    void pop_front() {
      buf_[head_] = Entry{};  // release the packet handle
      head_ = (head_ + 1) % capacity_;
      --size_;
    }

   private:
    std::vector<Entry> buf_;  // empty until the first push
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  // Called after a successful enqueue; the discipline arms its transmit
  // machinery (slot timer, backoff cycle) if it is not already running.
  virtual void kick() = 0;

  // Control traffic (ACKs) is transmitted before data: feedback keeps the
  // rate controllers honest precisely when queues are backlogged, and an
  // ACK stuck behind 50 data packets per hop arrives too stale to matter.
  TxRing* current_queue();
  void finish_head(TxRing& q, bool delivered);

  sim::Simulator& sim_;
  phy::Channel& channel_;
  phy::EnergyModel& energy_;
  core::NodeId self_;
  MacConfig cfg_;
  LinkEstimator estimator_;

  TxRing ctrl_queue_;
  TxRing queue_;

  PreXmitHook pre_xmit_;
  DeliverHook deliver_;
  AttemptBudgetTrace attempt_trace_;

  std::uint64_t queue_drops_ = 0;
  std::uint64_t attempt_drops_ = 0;
  std::uint64_t budget_drops_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t deliveries_ = 0;
};

// The slot-timed transmit loop shared by the TDMA family: one attempt at
// the head of the queue per owned slot, a success handed to the deliver
// hook to land one slot-duration later. Concrete MACs supply the slot
// geometry — which slot covers a time, when a slot starts, and which
// upcoming slot this node owns.
class SlottedMac : public MacBase {
 protected:
  SlottedMac(sim::Simulator& sim, phy::Channel& channel,
             phy::EnergyModel& energy, core::NodeId self,
             const MacConfig& cfg);

  // --- slot geometry, supplied by the concrete MAC ---
  virtual std::uint64_t slot_at(sim::Time t) = 0;
  virtual sim::Time slot_start(std::uint64_t slot) = 0;
  virtual double slot_duration() = 0;
  // First slot owned by this node with index >= from_slot. The ownership
  // map may be lazily refreshed here (spatial reuse recolors on topology
  // change).
  virtual std::uint64_t next_owned_slot_from(std::uint64_t from_slot) = 0;

  void kick() override { schedule_next_tx(); }

 private:
  void schedule_next_tx();
  void transmit_head();

  bool tx_scheduled_ = false;
  std::uint64_t min_slot_ = 0;  // earliest slot the next tx may use
};

}  // namespace jtp::mac
