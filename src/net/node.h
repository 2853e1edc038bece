// A network node: MAC + iJTP plug-in + routing client + local endpoints.
//
// The node is the composition point of the stack. It implements the
// per-packet pipeline of Figure 1:
//   outbound:  endpoint -> route lookup -> MAC queue -> (pre-xmit hook:
//              iJTP Algorithm 1 for JTP flows) -> air;
//   inbound:   air -> (post-receive hook: iJTP Algorithm 2 — cache data,
//              serve SNACKs from cache) -> local delivery or forward.
// Which treatment a packet gets depends on its flow's hop policy, and
// which endpoint a local packet reaches on its flow's entry, both looked
// up in the network-wide flow table.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ijtp.h"
#include "core/packet.h"
#include "core/packet_pool.h"
#include "core/transport.h"
#include "core/types.h"
#include "mac/mac.h"
#include "routing/link_state.h"

namespace jtp::net {

// The in-network half of a transport: how intermediate hops treat a
// flow's packets. This is a small closed set of per-hop behaviours; each
// end-to-end protocol picks one (net::hop_policy), so a new protocol
// needs no edits here.
enum class HopPolicy : std::uint8_t {
  kIjtp,       // Algorithms 1-2: attempt control, caching, SNACK service
  kRateStamp,  // ATP-style available-rate stamping, fixed attempts
  kPlain,      // no in-network help, fixed attempts (TCP)
};

// One flow's entry: its hop policy and its endpoints (the sender lives
// at the flow's source node, the receiver at its destination).
struct FlowEntry {
  HopPolicy policy = HopPolicy::kIjtp;
  core::TransportSender* sender = nullptr;
  core::TransportReceiver* receiver = nullptr;
};

// Shared flow table (one per Network), indexed by flow id: Network hands
// ids out densely from 1. An id never registered reads kIjtp with no
// endpoints. Written only while no simulation runs, so shards read it
// without locks.
class FlowTable {
 public:
  void register_flow(core::FlowId flow, HopPolicy policy,
                     core::TransportSender* sender,
                     core::TransportReceiver* receiver) {
    if (flow >= entries_.size()) entries_.resize(std::size_t{flow} + 1);
    entries_[flow] = {policy, sender, receiver};
  }
  FlowEntry entry(core::FlowId flow) const {
    return flow < entries_.size() ? entries_[flow] : FlowEntry{};
  }
  HopPolicy policy(core::FlowId flow) const { return entry(flow).policy; }

 private:
  std::vector<FlowEntry> entries_;
};

struct NodeConfig {
  core::IjtpConfig ijtp;
  // Horizon over which standing queue backlog is converted into an
  // available-rate discount for JTP's stamp (shorter = more conservative
  // congestion avoidance).
  double backlog_drain_horizon_s = 5.0;
};

class Node final : public core::PacketSink {
 public:
  // `pool` is the simulation's packet pool (cache retransmissions clone
  // cached headers into fresh slots); it must outlive the node.
  Node(core::NodeId id, mac::MacIface& mac,
       const routing::LinkStateRouting& routing, const FlowTable& flows,
       core::PacketPool& pool, NodeConfig cfg = {});

  core::NodeId id() const { return id_; }
  core::IjtpModule& ijtp() { return ijtp_; }
  const core::IjtpModule& ijtp() const { return ijtp_; }
  mac::MacIface& mac() { return mac_; }

  // PacketSink: local endpoints and the forwarding path inject here.
  // Packets move by pooled handle end to end (zero copies per hop).
  void send(core::PacketPtr p) override;

  // Like send(), but reports whether the packet was accepted by the MAC
  // queue (false on route failure or queue overflow). Used by iJTP's
  // cache-retransmission path, which must know if the copy really left.
  bool try_send(core::PacketPtr p);

  // Called by the network fabric when a transmission reaches this node.
  // A data packet addressed here goes to its flow's receiver, an ACK to
  // its flow's sender.
  void handle_delivery(core::PacketPtr p, core::NodeId from);

  std::uint64_t route_drops() const { return route_drops_; }

 private:
  mac::PreXmitDecision pre_xmit(core::Packet& p, core::NodeId next_hop,
                                const core::LinkView& link,
                                core::Joules tx_energy, bool first_attempt);

  core::NodeId id_;
  mac::MacIface& mac_;
  const routing::LinkStateRouting& routing_;
  const FlowTable& flows_;
  core::PacketPool& pool_;
  NodeConfig cfg_;
  core::IjtpModule ijtp_;

  std::uint64_t route_drops_ = 0;
};

}  // namespace jtp::net
