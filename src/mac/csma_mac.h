// Slotted CSMA/CA with binary exponential backoff (802.15.4 style).
//
// The contention counterpoint to slotted TDMA: instead of owned slots,
// a node that has traffic backs off a random number of unit periods in
// [0, 2^BE), senses the carrier (CCA), and transmits if idle. A busy CCA
// doubles the window (BE capped at max_be) and counts against the backoff
// budget; exhausting max_backoffs is a channel-access failure that drops
// the packet. Carrier sense is physical: a CSMA medium tracks in-flight
// transmissions against the topology, so hidden terminals are real — two
// transmitters out of carrier range of each other can still collide at a
// common receiver.
//
// Timing rules (model semantics: every committed CSMA baseline is pinned
// to them):
//  * Contention is grid-aligned: every CCA and transmission start sits on
//    a whole backoff-unit boundary (the next grid point after the random
//    backoff), like the slotted CAP of 802.15.4.
//  * CCA has one unit of detection latency: a frame is audible at grid
//    point t only if it started at or before t - unit.
//  * Each record captures the sender's and receiver's positions at start
//    time; collision marking and CCA geometry are evaluated against the
//    captured points.
//  * The collision verdict is read half a unit after the frame ends, and
//    the deliver hook lands the frame another half unit later (Network
//    charges the receive energy when it lands).
// Each attempt goes through MacIface's one attempt path (begin_attempt /
// end_attempt), the same one slotted TDMA takes: every attempt (including
// retries) is charged to the energy layer individually, matching the ns-3
// 802.15.4 energy exemplar where cost is unitEnergy · (retries + 1).
#pragma once

#include <cstdint>
#include <vector>

#include "mac/mac.h"
#include "phy/topology.h"
#include "sim/random.h"

namespace jtp::mac {

// The carrier: tracks the transmissions in flight so CCA and collision
// checks are range queries against captured geometry.
class CsmaMedium {
 public:
  using TxId = std::uint64_t;

  CsmaMedium(const phy::Topology& topo, double unit_s)
      : topo_(topo), range_(topo.radio_range()), unit_(unit_s) {}

  // Registers a frame in flight from `sender` toward `receiver` over
  // [start, end), captures both endpoints' positions, resolves
  // collisions against every overlapping record (both directions, via
  // captured geometry).
  TxId begin_tx(core::NodeId sender, core::NodeId receiver, sim::Time start,
                sim::Time end);

  // CCA at grid point `now`: is any transmission that started at least
  // one unit ago still in the air and audible at `listener`? (Captured
  // sender position vs. the listener's live one.)
  bool busy(core::NodeId listener, sim::Time now) const;

  // Releases a record and returns whether the frame was collided at its
  // receiver. Called exactly once, half a unit after the transmission's
  // end.
  bool finish_tx(TxId id);

 private:
  struct Tx {
    TxId id = 0;
    core::NodeId sender = core::kInvalidNode;
    core::NodeId receiver = core::kInvalidNode;
    phy::Position spos;
    phy::Position rpos;
    sim::Time start = 0.0;
    sim::Time end = 0.0;
    bool collided = false;
  };

  bool audible(const phy::Position& a, const phy::Position& b) const {
    const double dx = a.x - b.x, dy = a.y - b.y;
    return dx * dx + dy * dy <= range_ * range_;
  }
  void mark_collisions(Tx& tx);

  const phy::Topology& topo_;
  double range_;
  double unit_;
  TxId next_id_ = 0;
  std::vector<Tx> active_;
};

class CsmaMac final : public MacIface {
 public:
  CsmaMac(sim::Simulator& sim, CsmaMedium& medium, phy::Channel& channel,
          phy::EnergyModel& energy, core::NodeId self, double unit_backoff_s,
          MacConfig cfg, sim::Rng rng);

  // Busy-CCA count (each one burns a backoff stage); conformance and the
  // energy analysis read contention pressure off this.
  std::uint64_t cca_failures() const { return cca_failures_; }

 protected:
  void kick() override;

 private:
  void start_backoff();
  void attempt_transmit();
  void finish_tx(TxRing* q, CsmaMedium::TxId txid, bool lost_ch);
  void next_cycle();

  CsmaMedium& medium_;
  double unit_;  // one backoff period, seconds
  sim::Rng rng_;

  bool busy_ = false;  // a contention cycle (backoff or tx) is in flight
  int nb_ = 0;         // busy-CCA count this cycle
  int be_ = 0;         // current backoff exponent
  std::uint64_t cca_failures_ = 0;
};

}  // namespace jtp::mac
