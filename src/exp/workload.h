// Flow management across the transports under test.
//
// FlowManager attaches flows of a chosen protocol to a Network through
// the unified Network::add_flow / net::FlowHandle API, schedules their
// start, tracks completion times, and aggregates RunMetrics afterwards.
// It contains no per-protocol code: protocol defaults live in
// net::make_endpoints (paper §6.1 protocols: kJtp, kJnc, kTcp, kAtp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/metrics.h"
#include "net/network.h"

namespace jtp::exp {

using net::FlowOptions;
using net::Proto;
using core::parse_proto;
using core::proto_name;

class FlowManager {
 public:
  // Throws std::invalid_argument when `proto` forbids in-network caching
  // (e.g. kJnc) but the network was built with caching enabled — the
  // scenario layer must build the network to match the protocol.
  FlowManager(net::Network& network, Proto proto);

  // One managed flow: the uniform transport handle plus the experiment
  // bookkeeping (start/completion times) goodput accounting needs.
  struct FlowHandle : net::FlowHandle {
    double start_time = 0.0;
    double completed_at = -1.0;  // < 0 until the transfer finishes
    std::uint64_t total_packets = 0;  // 0 = long-lived
  };

  // Creates a flow and starts it after `start_delay_s` (sim time offset
  // from now). `total_packets` = 0 means a long-lived flow.
  FlowHandle& create(core::NodeId src, core::NodeId dst,
                     std::uint64_t total_packets, double start_delay_s = 0.0,
                     FlowOptions opt = {});

  const std::vector<std::unique_ptr<FlowHandle>>& flows() const {
    return flows_;
  }
  net::Network& network() { return net_; }
  Proto proto() const { return proto_; }

  // Aggregates all counters after (or during) a run.
  RunMetrics collect(double duration_s) const;

 private:
  net::Network& net_;
  Proto proto_;
  std::vector<std::unique_ptr<FlowHandle>> flows_;
};

}  // namespace jtp::exp
