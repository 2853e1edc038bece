// The transport factory/registry: how protocols plug into a Network.
//
// A transport implementation registers once under a core::Proto value,
// declaring (a) its in-network HopPolicy, (b) whether in-network caches
// may serve its flows, and (c) a factory that builds a wired
// sender/receiver endpoint pair. `Network::add_flow(proto, src, dst,
// opts)` looks the protocol up here and returns a uniform FlowHandle —
// adding a protocol is one registration; Network, FlowManager, Node, the
// benches, and the metrics pipeline need no edits.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/ejtp_receiver.h"  // FeedbackMode
#include "core/path_monitor.h"
#include "core/transport.h"
#include "core/types.h"
#include "net/node.h"

namespace jtp::net {

class Network;

using core::Proto;

// Per-flow knobs that individual experiments vary. They are
// protocol-independent; each factory maps the subset its protocol
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
// Network so factories can derive rate caps and RTT-based timeouts.
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

// Builds the endpoint pair of one flow. Implementations construct the
// sender against net.node(src) and the receiver against net.node(dst) and
// must not schedule events or start timers — the flow starts when the
// caller invokes start() on the endpoints.
class TransportFactory {
 public:
  virtual ~TransportFactory() = default;
  virtual TransportEndpoints make(Network& net, core::FlowId flow,
                                  core::NodeId src, core::NodeId dst,
                                  const FlowOptions& opt,
                                  const PathInfo& path) const = 0;
};

// Everything the stack needs to know about a registered protocol.
struct TransportInfo {
  Proto proto = Proto::kJtp;
  HopPolicy hop_policy = HopPolicy::kPlain;
  // False => the protocol requires a network built with in-network
  // caching disabled (scenario builders honor this; FlowManager enforces
  // it).
  bool caching = true;
  std::shared_ptr<const TransportFactory> factory;
};

// Process-wide protocol registry. The builtin protocols (the four paper
// protocols plus the delivery-rate transports jtp_dr/bbr) are registered
// on first use; additional protocols must be registered before any
// simulation threads start (registration and lookup are mutex-guarded,
// but the entries themselves are immutable once added — this is the one
// deliberate process-global in the stack, and it holds no per-run state,
// so seed-parallel determinism is unaffected).
class TransportRegistry {
 public:
  static TransportRegistry& instance();

  // Throws std::invalid_argument if `info.proto` is already registered or
  // `info.factory` is null.
  void add(TransportInfo info);

  // Throws std::invalid_argument on an unregistered proto.
  const TransportInfo& info(Proto p) const;

  bool registered(Proto p) const;
  bool caching_enabled(Proto p) const { return info(p).caching; }

  // Registered protos in registration order (builtins first).
  std::vector<Proto> protos() const;

 private:
  TransportRegistry();  // registers the builtins (jtp … jtp_dr, bbr)

  mutable std::mutex mu_;
  std::deque<TransportInfo> entries_;  // deque: info() refs stay valid
};

}  // namespace jtp::net
