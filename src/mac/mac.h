// The MAC seam: enum, config, hooks, and the per-node MAC every
// discipline derives from.
//
// A MAC discipline provides one MacIface per node — the
// queue/attempt/retry state machine the transport layer talks to — and
// a fabric class that mac::make_fabric (mac/fabric.h) builds from its
// Mac enum value. Network and Node depend only on this class. The
// contract mirrors the paper's iJTP plug-in architecture (§2.2.2):
//   * pre-xmit hook — invoked immediately before every over-the-air
//     transmission; may drop the packet (energy budget) and, on the first
//     attempt, fixes the packet's attempt budget;
//   * delivery hook — invoked when a transmission succeeds, with the
//     delay after which the packet lands at the next node. The hook
//     schedules the landing and charges the receiver; the MAC charges
//     only the sender;
//   * LinkEstimator feed — per-link loss / available-rate / attempts
//     statistics, updated per transmission outcome.
//
// MacIface owns what is common to every discipline: two fixed-capacity
// FIFO rings (control ahead of data), the hooks, the LinkEstimator, the
// counter set that is the conformance contract, and the one attempt path
// (begin_attempt / end_attempt) where an attempt is charged and its
// outcome lands. When the head of the queue hits the air is the
// discipline's: SlottedMac (mac/slotted.h) transmits in the next owned
// slot, CsmaMac (mac/csma_mac.h) after a contention cycle.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/env.h"
#include "core/packet.h"
#include "core/types.h"
#include "mac/link_estimator.h"
#include "phy/channel.h"
#include "phy/energy_model.h"
#include "sim/simulator.h"

namespace jtp::mac {

// The MAC disciplines.
enum class Mac : std::uint8_t { kTdma, kTdmaReuse, kCsma };

// Every MAC, in enum order: what "all MACs" means to the parser, the
// sweeps and the conformance suite.
inline constexpr std::array<Mac, 3> kAllMacs{Mac::kTdma, Mac::kTdmaReuse,
                                             Mac::kCsma};

std::string mac_name(Mac m);

// Inverse of mac_name; nullopt on an unknown name.
std::optional<Mac> parse_mac(std::string_view name);

// CSMA/CA contention knobs (802.15.4-style slotted binary exponential
// backoff: delay ~ U[0, 2^BE) backoff units before each clear-channel
// assessment).
struct CsmaConfig {
  int min_be = 3;        // initial backoff exponent
  int max_be = 5;        // BE cap after busy assessments
  int max_backoffs = 4;  // CCA retries before a channel-access failure
};

struct MacConfig {
  std::size_t queue_capacity_packets = 50;
  LinkEstimatorConfig estimator;
  // tdma_reuse: interference range as a multiple of the radio range for
  // the direct (carrier) conflict check; the 2-hop rule applies always.
  double reuse_range_margin = 1.0;
  CsmaConfig csma;
};

struct PreXmitDecision {
  bool drop = false;
  int max_attempts = 0;  // 0 = core::kDefaultMaxAttempts (Table 1)
};

// Slot-reuse accounting, reported per fabric (mirrors RoutingStats for
// the control plane). Classic TDMA is the degenerate coloring: every node
// its own color, reuse factor 1. CSMA has no coloring; all zeros.
struct MacStats {
  std::uint64_t recolors = 0;     // interference recolorings performed
  std::size_t colors_used = 0;    // slots per frame
  double reuse_factor = 1.0;      // n / colors_used
};

// Hook signatures. `tx_energy` is what this attempt will cost the sender;
// `first_attempt` is true the first time this packet hits the air here.
using PreXmitHook = std::function<PreXmitDecision(
    core::Packet&, core::NodeId next_hop, const core::LinkView&,
    core::Joules tx_energy, bool first_attempt)>;
// A successful transmission: `packet` lands at `to` `delay_s` from now.
// Called at the moment the MAC knows the frame got through; the hook
// owns the landing event and the receive energy (Network routes both to
// the shard that owns `to`).
using DeliverHook =
    std::function<void(double delay_s, core::PacketPtr&& packet,
                       core::NodeId from, core::NodeId to)>;
using AttemptBudgetTrace =
    std::function<void(sim::Time, const core::Packet&, int max_attempts)>;

// One node's MAC. Everything the net/ layer (Node, Network) and the
// transport hooks touch goes through this class; the conformance suite
// (tests/mac_conformance_test.cc) pins the behavioural contract for every
// Mac in kAllMacs.
class MacIface {
 public:
  using PreXmitHook = mac::PreXmitHook;
  using DeliverHook = mac::DeliverHook;
  using AttemptBudgetTrace = mac::AttemptBudgetTrace;

  virtual ~MacIface() = default;
  // Pending slot and backoff events capture `this`.
  MacIface(const MacIface&) = delete;
  MacIface& operator=(const MacIface&) = delete;

  void set_pre_xmit(PreXmitHook hook) { pre_xmit_ = std::move(hook); }
  void set_deliver(DeliverHook hook) { deliver_ = std::move(hook); }
  void set_attempt_trace(AttemptBudgetTrace t) {
    attempt_trace_ = std::move(t);
  }

  // Queues a packet for `next_hop`. Returns false (and counts a queue
  // drop) when the queue is full; the dropped packet's slot is recycled.
  bool enqueue(core::PacketPtr p, core::NodeId next_hop);

  core::NodeId self() const { return self_; }
  LinkEstimator& estimator() { return estimator_; }
  const LinkEstimator& estimator() const { return estimator_; }
  std::size_t queue_length() const {
    return queue_.size() + ctrl_queue_.size();
  }

  // --- counters (the conformance contract) ---
  std::uint64_t queue_drops() const { return queue_drops_; }
  std::uint64_t attempt_exhausted_drops() const { return attempt_drops_; }
  std::uint64_t energy_budget_drops() const { return budget_drops_; }
  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t deliveries() const { return deliveries_; }

 protected:
  MacIface(sim::Simulator& sim, phy::Channel& channel,
           phy::EnergyModel& energy, core::NodeId self, const MacConfig& cfg);

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

  // The one attempt path both disciplines share. begin_attempt puts the
  // head of `q` on the air: it runs the pre-xmit hook and, on a veto
  // (energy budget, Algorithm 1 line 3), counts the drop, retires the
  // head and returns false. Otherwise it fixes the attempt budget on the
  // first attempt, counts the attempt and charges the sender its transmit
  // energy — every attempt costs energy whether or not the receiver
  // decodes it, so the sender pays unitEnergy · (retries + 1).
  bool begin_attempt(TxRing& q);
  // Settles the head's attempt: feeds the estimator, then hands a success
  // to the deliver hook to land `land_after_s` from now, retires the head
  // after its last failed attempt, or keeps it for another attempt.
  void end_attempt(TxRing& q, bool lost, double land_after_s);

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

}  // namespace jtp::mac
