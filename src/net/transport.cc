#include "net/transport.h"

#include <algorithm>
#include <stdexcept>

#include "baselines/atp.h"
#include "baselines/bbr.h"
#include "baselines/tcp_sack.h"
#include "core/ejtp_sender.h"
#include "core/jtp_dr.h"
#include "net/network.h"

namespace jtp::net {

namespace {

// The eJTP sender/receiver configs, shared by jtp, jnc (which differs
// only in the network-level caching switch) and jtp_dr.
struct EjtpConfigs {
  core::SenderConfig sender;
  core::ReceiverConfig receiver;
};

EjtpConfigs ejtp_configs(const Network& net, core::FlowId flow,
                         core::NodeId src, core::NodeId dst,
                         const FlowOptions& opt, const PathInfo& path) {
  // A flow can never exceed the TDMA per-node share (every hop must
  // relay it from its own slots); a rate floor well above zero keeps
  // the control loop observable (samples arrive with data packets).
  const double capacity = path.node_capacity_pps;
  const double rate_cap = std::min(opt.app_delivery_cap_pps, capacity);
  const double rate_floor = std::max(0.1, 0.07 * capacity);

  EjtpConfigs c;
  core::SenderConfig& s = c.sender;
  s.flow = flow;
  s.src = src;
  s.dst = dst;
  s.loss_tolerance = opt.loss_tolerance;
  s.initial_rate_pps = opt.initial_rate_pps;
  s.initial_energy_budget = opt.initial_energy_budget;
  s.backoff_for_local_recovery = opt.backoff_for_local_recovery;
  s.min_rate_pps = rate_floor;

  core::ReceiverConfig& r = c.receiver;
  r.flow = flow;
  r.src = src;
  r.dst = dst;
  r.loss_tolerance = opt.loss_tolerance;
  r.feedback_mode = opt.feedback_mode;
  r.constant_feedback_rate_pps = opt.constant_feedback_rate_pps;
  r.t_lower_bound_s = opt.t_lower_bound_s;
  r.rtt_estimate_s = path.rtt_estimate_s;
  r.energy_beta = opt.energy_beta;
  r.app_delivery_cap_pps = opt.app_delivery_cap_pps;
  r.monitor = opt.monitor;
  r.cache_size_packets = net.config().node.ijtp.cache_capacity_packets;
  r.rate.initial_rate_pps = opt.initial_rate_pps;
  r.rate.delta_pps = 0.15 * capacity;  // headroom target δ
  r.rate.min_rate_pps = rate_floor;
  r.rate.max_rate_pps = rate_cap;
  return c;
}

// TCP-SACK's config; tcp and bbr share its receiver, which reads only the
// flow identity and the ACK cadence.
baselines::TcpConfig tcp_config(core::FlowId flow, core::NodeId src,
                                core::NodeId dst, const FlowOptions& opt,
                                const PathInfo& path) {
  baselines::TcpConfig c;
  c.flow = flow;
  c.src = src;
  c.dst = dst;
  c.initial_rate_pps = opt.initial_rate_pps;
  c.initial_rtt_s = path.rtt_estimate_s;
  c.max_rate_pps = 4.0 * path.node_capacity_pps;
  return c;
}

}  // namespace

HopPolicy hop_policy(Proto p) {
  switch (p) {
    case Proto::kJtp:
    case Proto::kJnc:
    case Proto::kJtpDr: return HopPolicy::kIjtp;
    case Proto::kAtp: return HopPolicy::kRateStamp;
    case Proto::kTcp:
    case Proto::kBbr: return HopPolicy::kPlain;
  }
  throw std::invalid_argument("hop_policy: unknown protocol");
}

bool caching_allowed(Proto p) {
  switch (p) {
    case Proto::kJnc: return false;
    case Proto::kJtp:
    case Proto::kTcp:
    case Proto::kAtp:
    case Proto::kJtpDr:
    case Proto::kBbr: return true;
  }
  throw std::invalid_argument("caching_allowed: unknown protocol");
}

TransportEndpoints make_endpoints(Proto p, Network& net, core::FlowId flow,
                                  core::NodeId src, core::NodeId dst,
                                  const FlowOptions& opt,
                                  const PathInfo& path) {
  core::Env& senv = net.env_for(src);
  core::Env& denv = net.env_for(dst);
  Node& snode = net.node(src);
  Node& dnode = net.node(dst);
  switch (p) {
    case Proto::kJtp:
    case Proto::kJnc: {
      const EjtpConfigs c = ejtp_configs(net, flow, src, dst, opt, path);
      return {std::make_unique<core::EjtpSender>(senv, snode, c.sender),
              std::make_unique<core::EjtpReceiver>(denv, dnode, c.receiver)};
    }
    case Proto::kJtpDr: {
      // The stock eJTP pair, but the sender's PI²/MD input Ā is a
      // sender-side delivery-rate estimate instead of the destination's
      // per-hop idle-rate aggregate. Its δ is a collapse guard, not a
      // headroom target (see JtpDrConfig): per-flow delivery under fair
      // sharing sits far below capacity without meaning congestion.
      const EjtpConfigs c = ejtp_configs(net, flow, src, dst, opt, path);
      core::JtpDrConfig dr;
      dr.rate = c.receiver.rate;
      dr.rate.delta_pps = 0.02 * path.node_capacity_pps;
      return {std::make_unique<core::JtpDrSender>(senv, snode, c.sender, dr),
              std::make_unique<core::EjtpReceiver>(denv, dnode, c.receiver)};
    }
    case Proto::kTcp: {
      const baselines::TcpConfig c = tcp_config(flow, src, dst, opt, path);
      return {std::make_unique<baselines::TcpSackSender>(senv, snode, c),
              std::make_unique<baselines::TcpSackReceiver>(denv, dnode, c)};
    }
    case Proto::kAtp: {
      baselines::AtpConfig c;
      c.flow = flow;
      c.src = src;
      c.dst = dst;
      c.initial_rate_pps = opt.initial_rate_pps;
      c.feedback_period_s =
          std::max(3.0, 1.1 * path.rtt_estimate_s);  // D > RTT
      c.max_rate_pps = 4.0 * path.node_capacity_pps;
      return {std::make_unique<baselines::AtpSender>(senv, snode, c),
              std::make_unique<baselines::AtpReceiver>(denv, dnode, c)};
    }
    case Proto::kBbr: {
      // BBR-style pacing over the TCP-SACK feedback channel: same
      // receiver, same headers, same ACK cadence as tcp — only the
      // sender's congestion-control model differs.
      baselines::BbrConfig c;
      c.flow = flow;
      c.src = src;
      c.dst = dst;
      c.initial_rate_pps = opt.initial_rate_pps;
      c.initial_rtt_s = path.rtt_estimate_s;
      c.max_rate_pps = 4.0 * path.node_capacity_pps;
      return {std::make_unique<baselines::BbrSender>(senv, snode, c),
              std::make_unique<baselines::TcpSackReceiver>(
                  denv, dnode, tcp_config(flow, src, dst, opt, path))};
    }
  }
  throw std::invalid_argument("make_endpoints: unknown protocol");
}

}  // namespace jtp::net
