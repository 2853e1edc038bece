#include "net/node.h"

#include <algorithm>
#include <utility>

namespace jtp::net {

Node::Node(core::NodeId id, mac::MacIface& mac,
           const routing::LinkStateRouting& routing, const FlowTable& flows,
           core::PacketPool& pool, NodeConfig cfg)
    : id_(id),
      mac_(mac),
      routing_(routing),
      flows_(flows),
      pool_(pool),
      cfg_(cfg),
      ijtp_(cfg.ijtp) {
  mac_.set_pre_xmit([this](core::Packet& p, core::NodeId next_hop,
                           const core::LinkView& link, core::Joules tx_energy,
                           bool first_attempt) {
    return pre_xmit(p, next_hop, link, tx_energy, first_attempt);
  });
}

void Node::send(core::PacketPtr p) { try_send(std::move(p)); }

bool Node::try_send(core::PacketPtr p) {
  const auto next = routing_.next_hop(id_, p->dst);
  if (!next) {
    // The current topology view has no route (partition or staleness).
    ++route_drops_;
    return false;
  }
  return mac_.enqueue(std::move(p), *next);
}

mac::PreXmitDecision Node::pre_xmit(core::Packet& p, core::NodeId /*next_hop*/,
                                    const core::LinkView& link,
                                    core::Joules tx_energy,
                                    bool first_attempt) {
  switch (flows_.policy(p.flow)) {
    case HopPolicy::kIjtp: {
      // JTP's congestion-avoidance twist: the idle-slot estimate looks
      // backward, but standing queue backlog is committed future usage.
      // Discounting it turns the stamped available rate down *before* the
      // queue overflows — avoiding loss instead of reacting to it (§2,
      // goal 3). The baselines stamp the raw estimate.
      core::LinkView adjusted = link;
      const double backlog_pps =
          static_cast<double>(mac_.queue_length()) /
          cfg_.backlog_drain_horizon_s;
      adjusted.available_rate_pps =
          std::max(0.0, adjusted.available_rate_pps - backlog_pps);
      const auto remaining = routing_.hops(id_, p.dst);
      const auto r = ijtp_.pre_xmit(p, adjusted, remaining.value_or(1),
                                    tx_energy, first_attempt);
      return {r.drop, r.max_attempts};
    }
    case HopPolicy::kRateStamp: {
      // ATP stamps the rate implied by queueing + transmission delay,
      // R = 1/(Q̄ + T̄) (Sundaresan et al. [34]): the bottleneck's *total*
      // sustainable rate, not its idle share. Every competing flow is
      // told the same number, so in aggregate ATP drives the path to
      // saturation with no headroom — and, unlike JTP (§2.1.1), the
      // estimate is not normalized by MAC-level retransmissions. No
      // attempt control, energy budgeting, or cache interplay either.
      if (p.is_data()) {
        const double capacity =
            mac_.estimator().config().node_capacity_pps;
        const double sustainable =
            capacity / static_cast<double>(mac_.queue_length() + 1);
        p.available_rate_pps =
            std::min(p.available_rate_pps, sustainable);
      }
      return {false, core::kDefaultMaxAttempts};
    }
    case HopPolicy::kPlain:
      return {false, core::kDefaultMaxAttempts};
  }
  return {false, core::kDefaultMaxAttempts};
}

void Node::handle_delivery(core::PacketPtr p, core::NodeId /*from*/) {
  const bool local = (p->dst == id_);
  const FlowEntry flow = flows_.entry(p->flow);

  // iJTP post-receive (Algorithm 2) runs at intermediate nodes of JTP
  // flows: cache traversing data, serve SNACKs from the cache (queued
  // toward the data destination), rewrite the ACK's locally-recovered set
  // before it continues upstream. Cache retransmissions are stack-built
  // Packet values (headers only); they enter the pool here.
  if (!local && flow.policy == HopPolicy::kIjtp) {
    ijtp_.post_rcv(*p, [this](core::Packet&& rtx) {
      return try_send(pool_.make(std::move(rtx)));
    });
  }

  if (!local) {
    send(std::move(p));
    return;
  }

  if (p->is_data()) {
    if (flow.receiver) flow.receiver->on_data(*p);
  } else if (flow.sender) {
    flow.sender->on_ack(*p);
  }
}

}  // namespace jtp::net
