// How protocols plug into a Network: one switch over core::Proto per
// question.
//
// hop_policy(p) is the in-network HopPolicy of p's packets,
// caching_allowed(p) whether in-network caches may serve p's flows, and
// make_endpoints(p, ...) builds p's wired sender/receiver pair.
// `Network::add_flow(proto, src, dst, opts)` uses the first and the last
// and returns a uniform FlowHandle; the scenario layer and FlowManager
// use caching_allowed. FlowManager, Node, the benches and the metrics
// pipeline never name a protocol. Each function is a switch with no
// default: -Wswitch (an error in this build) names every one a new Proto
// value must reach.
#pragma once

#include <memory>

#include "core/ejtp_receiver.h"  // FeedbackMode
#include "core/path_monitor.h"
#include "core/transport.h"
#include "core/types.h"
#include "net/node.h"

namespace jtp::net {

class Network;

using core::Proto;

// Per-flow knobs that individual experiments vary. They are
// protocol-independent; make_endpoints maps the subset each protocol
// understands onto that protocol's own config.
struct FlowOptions {
  double loss_tolerance = 0.0;
  double initial_rate_pps = 1.0;
  core::FeedbackMode feedback_mode = core::FeedbackMode::kVariable;
  double constant_feedback_rate_pps = 0.2;  // used in kConstant mode
  double t_lower_bound_s = 10.0;
  bool backoff_for_local_recovery = true;
  // β in e = β·eUCL (eq. 13). Must cover the worst legitimate delivery:
  // a packet that needs the full MAC attempt budget on several bad-state
  // links costs ~4-5x the typical path energy, so β below ~4 makes the
  // budget kill packets the reliability machinery then has to repair.
  double energy_beta = 5.0;
  double app_delivery_cap_pps = 1e6;
  core::Joules initial_energy_budget = 0.0;  // 0 = unbudgeted at start
  core::PathMonitorConfig monitor;           // flip-flop filter knobs
};

// Facts about the src->dst path at attachment time, precomputed by the
// Network so make_endpoints can derive rate caps and RTT-based timeouts.
struct PathInfo {
  double node_capacity_pps = 0.0;  // TDMA per-node share
  int hops = 1;
  double rtt_estimate_s = 2.0;
};

// One attached flow, protocol-agnostic. The counter accessors are the
// unified contract the metrics pipeline reads; protocol-specific
// instrumentation is reached through the typed downcast helpers.
struct FlowHandle {
  Proto proto = Proto::kJtp;
  core::FlowId id = 0;
  core::NodeId src = core::kInvalidNode;
  core::NodeId dst = core::kInvalidNode;
  core::TransportSender* sender = nullptr;
  core::TransportReceiver* receiver = nullptr;

  bool finished() const { return sender->finished(); }
  void stop() const {
    sender->stop();
    receiver->stop();
  }
  double delivered_bits() const { return receiver->delivered_payload_bits(); }
  std::uint64_t delivered_packets() const {
    return receiver->delivered_packets();
  }
  std::uint64_t waived_packets() const { return receiver->waived_packets(); }
  std::uint64_t data_sent() const { return sender->data_packets_sent(); }
  std::uint64_t source_rtx() const {
    return sender->source_retransmissions();
  }
  std::uint64_t acks_sent() const { return receiver->acks_sent(); }

  // Typed access to protocol-specific instrumentation, e.g.
  // `flow.receiver_as<core::EjtpReceiver>()->rate_monitor()`. Returns
  // nullptr when the flow's endpoints are of a different type.
  template <typename S>
  S* sender_as() const {
    return dynamic_cast<S*>(sender);
  }
  template <typename R>
  R* receiver_as() const {
    return dynamic_cast<R*>(receiver);
  }
};

struct TransportEndpoints {
  std::unique_ptr<core::TransportSender> sender;
  std::unique_ptr<core::TransportReceiver> receiver;
};

// How intermediate hops treat p's packets.
HopPolicy hop_policy(Proto p);

// False => p requires a network built with in-network caching disabled
// (scenario builders honor this; FlowManager enforces it).
bool caching_allowed(Proto p);

// Builds p's endpoint pair for one flow: the sender against
// net.node(src), the receiver against net.node(dst). Schedules no events
// and starts no timers — the flow starts when the caller invokes start()
// on the endpoints.
TransportEndpoints make_endpoints(Proto p, Network& net, core::FlowId flow,
                                  core::NodeId src, core::NodeId dst,
                                  const FlowOptions& opt,
                                  const PathInfo& path);

}  // namespace jtp::net
