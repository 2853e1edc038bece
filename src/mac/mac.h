// The polymorphic MAC seam: enum, config, hooks, and the per-node
// interface every MAC implements.
//
// A MAC implementation provides one MacIface per node — the
// queue/attempt/retry state machine the transport layer talks to — and
// a fabric class that mac::make_fabric (mac/fabric.h) builds from its
// Mac enum value. Network and Node depend only on this interface. The
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
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/env.h"
#include "core/packet.h"
#include "core/types.h"
#include "mac/link_estimator.h"

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
  int default_max_attempts = 5;  // used when no pre-xmit hook overrides
  LinkEstimatorConfig estimator;
  // tdma_reuse: interference range as a multiple of the radio range for
  // the direct (carrier) conflict check; the 2-hop rule applies always.
  double reuse_range_margin = 1.0;
  CsmaConfig csma;
};

struct PreXmitDecision {
  bool drop = false;
  int max_attempts = 0;  // 0 = keep MAC default
};

// Slot-reuse accounting, reported per fabric (mirrors RoutingStats for
// the control plane). Classic TDMA is the degenerate coloring: every node
// its own color, reuse factor 1. CSMA has no coloring; all zeros.
struct MacStats {
  std::uint64_t recolors = 0;     // interference recolorings performed
  std::size_t colors_used = 0;    // slots per frame
  std::size_t max_color = 0;      // highest color index assigned
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
// transport hooks touch goes through this interface; the conformance
// suite (tests/mac_conformance_test.cc) pins the behavioural contract
// for every Mac in kAllMacs.
class MacIface {
 public:
  using PreXmitHook = mac::PreXmitHook;
  using DeliverHook = mac::DeliverHook;
  using AttemptBudgetTrace = mac::AttemptBudgetTrace;

  virtual ~MacIface() = default;

  virtual void set_pre_xmit(PreXmitHook hook) = 0;
  virtual void set_deliver(DeliverHook hook) = 0;
  virtual void set_attempt_trace(AttemptBudgetTrace t) = 0;

  // Queues a packet for `next_hop`. Returns false (and counts a queue
  // drop) when the queue is full; the dropped packet's slot is recycled.
  virtual bool enqueue(core::PacketPtr p, core::NodeId next_hop) = 0;

  virtual core::NodeId self() const = 0;
  virtual LinkEstimator& estimator() = 0;
  virtual const LinkEstimator& estimator() const = 0;
  virtual std::size_t queue_length() const = 0;

  // --- counters (the conformance contract) ---
  virtual std::uint64_t queue_drops() const = 0;
  virtual std::uint64_t attempt_exhausted_drops() const = 0;
  virtual std::uint64_t energy_budget_drops() const = 0;
  virtual std::uint64_t transmissions() const = 0;
  virtual std::uint64_t deliveries() const = 0;
};

}  // namespace jtp::mac
