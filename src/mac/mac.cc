#include "mac/mac.h"

#include <utility>

#include "core/reliability.h"

namespace jtp::mac {

std::string mac_name(Mac m) {
  switch (m) {
    case Mac::kTdma: return "tdma";
    case Mac::kTdmaReuse: return "tdma_reuse";
    case Mac::kCsma: return "csma";
  }
  return "?";
}

std::optional<Mac> parse_mac(std::string_view name) {
  for (const Mac m : kAllMacs)
    if (name == mac_name(m)) return m;
  return std::nullopt;
}

MacIface::MacIface(sim::Simulator& sim, phy::Channel& channel,
                   phy::EnergyModel& energy, core::NodeId self,
                   const MacConfig& cfg)
    : sim_(sim),
      channel_(channel),
      energy_(energy),
      self_(self),
      cfg_(cfg),
      estimator_(cfg.estimator),
      ctrl_queue_(cfg.queue_capacity_packets),
      queue_(cfg.queue_capacity_packets) {}

bool MacIface::enqueue(core::PacketPtr p, core::NodeId next_hop) {
  TxRing& q = p->is_ack() ? ctrl_queue_ : queue_;
  if (q.full()) {
    ++queue_drops_;
    return false;  // `p` goes out of scope: the slot is recycled
  }
  q.push_back(Entry{std::move(p), next_hop, 0, 0});
  kick();
  return true;
}

MacIface::TxRing* MacIface::current_queue() {
  if (!ctrl_queue_.empty()) return &ctrl_queue_;
  if (!queue_.empty()) return &queue_;
  return nullptr;
}

void MacIface::finish_head(TxRing& q, bool delivered) {
  Entry& e = q.front();
  estimator_.record_packet(e.next_hop,
                           e.attempts_done > 0 ? e.attempts_done : 1);
  if (delivered) ++deliveries_;
  q.pop_front();
}

bool MacIface::begin_attempt(TxRing& q) {
  Entry& e = q.front();
  const bool first_attempt = (e.attempts_done == 0);
  PreXmitDecision d;
  if (pre_xmit_)
    d = pre_xmit_(*e.packet, e.next_hop, estimator_.view(e.next_hop, sim_.now()),
                  energy_.tx_energy(e.packet->size_bits()), first_attempt);
  if (d.drop) {
    ++budget_drops_;
    finish_head(q, /*delivered=*/false);
    return false;
  }
  if (first_attempt) {
    e.max_attempts =
        d.max_attempts > 0 ? d.max_attempts : core::kDefaultMaxAttempts;
    if (attempt_trace_ && e.packet->is_data())
      attempt_trace_(sim_.now(), *e.packet, e.max_attempts);
  }
  ++transmissions_;
  ++e.attempts_done;
  estimator_.record_slot_used(sim_.now());
  energy_.charge_tx(self_, e.packet->size_bits());
  return true;
}

void MacIface::end_attempt(TxRing& q, bool lost, double land_after_s) {
  Entry& e = q.front();
  estimator_.record_attempt(e.next_hop, lost);
  if (!lost) {
    // The handle moves out of the queue entry and rides the delivery
    // event; no packet bytes are copied on a successful hop.
    core::PacketPtr delivered = std::move(e.packet);
    const core::NodeId to = e.next_hop;
    finish_head(q, /*delivered=*/true);
    if (deliver_) deliver_(land_after_s, std::move(delivered), self_, to);
  } else if (e.attempts_done >= e.max_attempts) {
    // Attempt budget exhausted: local loss. Recovery, if the application
    // wants it, happens via SNACK + caches or the source (paper §4).
    ++attempt_drops_;
    finish_head(q, /*delivered=*/false);
  }
  // else: the packet stays at the head for the next attempt.
}

}  // namespace jtp::mac
