// Network: owns the whole simulated system and wires flows onto it.
//
// One Network = one simulation run: simulator, topology, channel, energy
// model, MAC fabric, routing service, one Node per vertex, and the
// transport endpoints attached to nodes. Flows attach through one
// polymorphic entry point — add_flow(proto, src, dst, opts) — which asks
// net/transport.h's switches over Proto for the hop policy and the
// endpoint pair; the link layer comes from mac::make_fabric's switch over
// NetworkConfig::mac_kind. Outside shard_config_error, which names the
// MACs that shard, the Network names no protocol or MAC. Every
// successful MAC transmission reaches the Network through one deliver
// hook; dispatch_delivery schedules the landing and the landing charges
// the receive energy. This is the "adaptation layer" through which
// experiments and examples use the library.
//
// Sharded execution (NetworkConfig::shards > 1) is for static fields
// under the slotted MACs (tdma, tdma_reuse) only. The node set is cut
// into spatially contiguous strips (phy::partition_strips) and each
// strip gets a per-shard simulation bundle — packet pool, Simulator,
// Channel, EnergyModel, routing view, SimEnv, MAC fabric — over the one
// shared topology, run in parallel by a sim::ShardedRunner with
// lookahead equal to the slot duration. Node i's entire stack (MAC
// queue, timers, packets, energy tally) lives in its owning shard;
// same-shard deliveries use the zero-alloc pipeline unchanged,
// cross-shard deliveries are re-pooled through the runner's mailboxes.
// Channel fading and loss streams are keyed per link, the TDMA schedule
// is a pure function of seed and topology, and event tie-break keys are
// drawn per owning node — so results are byte-identical for every shard
// count, K = 1 included (K = 1 builds no runner and collapses to the
// plain single-threaded loop).
//
// Mobile and CSMA runs do not shard: at n = 1000 neither reached the
// 1.5x speed-up that pays for the machinery (mobile tdma_reuse ran
// slower at K = 4). shard_config_error() words the rule; the constructor
// throws std::invalid_argument on a config that breaks it.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/transport.h"
#include "mac/fabric.h"
#include "net/node.h"
#include "net/sim_env.h"
#include "net/transport.h"
#include "phy/channel.h"
#include "phy/energy_model.h"
#include "phy/mobility.h"
#include "phy/topology.h"
#include "routing/link_state.h"
#include "sim/random.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

namespace jtp::net {

struct NetworkConfig {
  std::uint64_t seed = 1;
  phy::ChannelConfig channel;
  phy::RadioConfig radio;
  mac::Mac mac_kind = mac::Mac::kTdma;  // which MAC fabric to build
  mac::MacConfig mac;
  routing::RoutingConfig routing;
  NodeConfig node;
  double slot_duration_s = 0.035;  // ~ one max-size packet airtime
  std::optional<phy::MobilityConfig> mobility;  // engaged => nodes move
  // Parallel shards to run the event loop on (1 = classic serial loop).
  // > 1 needs a static field under tdma or tdma_reuse (see
  // shard_config_error); the effective count can be lower than requested
  // when the field is narrower than K radio ranges (see shard_count()).
  std::size_t shards = 1;
};

// Why a run with `shards` event-loop shards, this MAC and (if `mobile`)
// moving nodes cannot shard, or "" when it can. Only static fields under
// tdma or tdma_reuse shard; shards <= 1 always passes.
std::string shard_config_error(std::size_t shards, mac::Mac mac, bool mobile);

class Network {
 public:
  // Throws std::invalid_argument when shard_config_error objects to cfg.
  Network(phy::Topology topology, NetworkConfig cfg = {});
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- flow attachment (endpoints are owned by the network) ---
  // Registers a fresh flow id under the proto's hop policy, builds its
  // endpoint pair (net::make_endpoints), wires it to the src/dst nodes,
  // and returns the uniform handle. The flow is idle until start() is
  // invoked on it (FlowManager does the scheduling). Throws
  // std::invalid_argument on out-of-range endpoints or src == dst.
  FlowHandle add_flow(Proto proto, core::NodeId src, core::NodeId dst,
                      const FlowOptions& opt = {});

  // --- access (unqualified accessors answer from shard 0; under K = 1
  // that is the whole simulation, and the replicated state — channel,
  // routing view, MAC schedule — is identical in every shard) ---
  sim::Simulator& simulator() { return shards_[0]->sim; }
  core::Env& env() { return shards_[0]->env; }
  core::PacketPool& packet_pool() { return shards_[0]->pool; }
  // The one topology every shard reads (mobility moves it in place).
  phy::Topology& topology() { return topo_; }
  phy::Channel& channel() { return shards_[0]->channel; }
  phy::EnergyModel& energy() { return shards_[0]->energy; }
  routing::LinkStateRouting& routing() { return *shards_[0]->routing; }
  const mac::MacFabric& mac_fabric() const { return *shards_[0]->fabric; }
  Node& node(core::NodeId id) { return *nodes_.at(id); }
  // The MAC instance that owns node `id`'s queues and counters (its
  // owning shard's fabric; under K = 1, the only fabric).
  mac::MacIface& mac_of(core::NodeId id) {
    return shard_at(id).fabric->mac_of(id);
  }
  std::size_t size() const { return nodes_.size(); }
  sim::Rng& rng() { return rng_; }
  const NetworkConfig& config() const { return cfg_; }

  // --- shard-aware access ---
  std::size_t shard_count() const { return shards_.size(); }
  core::Env& env_for(core::NodeId id) { return shard_at(id).env; }
  double now_at(core::NodeId id) const {
    return shards_[shard_of_.at(id)]->sim.now();
  }
  // Wall time outside a run (all shard clocks agree on run_until
  // barriers; this is shard 0's clock).
  double now() const { return shards_[0]->sim.now(); }
  double slot_duration_s() const { return cfg_.slot_duration_s; }

  // Schedules `fn` at absolute time `at` in node `id`'s shard, executing
  // as that node (tie-break keys it draws come from the node's own
  // stream, so the schedule is identical for every shard count). Call
  // outside a run only (flow setup).
  void schedule_at_node(core::NodeId id, double at, std::function<void()> fn);

  // Schedules `fn` `delay` from now at node `to`'s shard, from code
  // currently executing in node `from`'s shard. Safe during a run;
  // `delay` must be >= slot_duration_s() (the runner's lookahead) when
  // the nodes live in different shards.
  void defer_from_to(core::NodeId from, core::NodeId to, double delay,
                     std::function<void()> fn);

  // Starts routing refresh (and mobility if configured) and runs the
  // simulation until `t`.
  void run_until(double t);

  // --- aggregate counters across nodes ---
  std::uint64_t total_queue_drops() const;
  std::uint64_t total_attempt_drops() const;
  std::uint64_t total_energy_budget_drops() const;
  std::uint64_t total_cache_retransmissions() const;
  std::uint64_t total_transmissions() const;
  std::uint64_t total_route_drops() const;
  // Sum of events executed by every shard's simulator. Not comparable
  // across shard counts (each shard replays its own control plane).
  std::uint64_t total_events_executed() const;

  // --- energy, aggregated shard-invariantly ---
  // Node i is charged only in its owning shard, in the same event order
  // for every K; summing per node in index order keeps the floating-
  // point total byte-identical across shard counts.
  core::Joules node_energy(core::NodeId id) const;
  core::Joules total_energy() const;
  std::vector<core::Joules> per_node_energy() const;

 private:
  // One shard's simulation bundle. The pool precedes the simulator:
  // pending delivery events hold packet handles, and destroying the
  // simulator releases them back into the pool (see sim_env.h).
  struct Shard {
    Shard(const NetworkConfig& cfg, const phy::Topology& topo);
    core::PacketPool pool;
    sim::Simulator sim;
    phy::Channel channel;
    phy::EnergyModel energy;
    std::unique_ptr<routing::LinkStateRouting> routing;
    SimEnv env;
    std::unique_ptr<mac::MacFabric> fabric;
  };

  Shard& shard_at(core::NodeId id) { return *shards_[shard_of_.at(id)]; }

  // Every MAC's deliver hook: schedules the landing in `to`'s shard —
  // same-shard through the zero-alloc pipeline, cross-shard through the
  // runner. The only place a delivery is scheduled.
  void dispatch_delivery(double delay_s, core::PacketPtr&& p,
                         core::NodeId from, core::NodeId to);
  // The landing: charges the receive energy (the only place it is
  // charged) and hands the packet to `to`'s stack.
  void execute_delivery(core::PacketPtr&& p, core::NodeId from,
                        core::NodeId to);

  core::FlowId next_flow_id_ = 1;

  NetworkConfig cfg_;
  sim::Rng rng_;
  phy::Topology topo_;
  std::vector<std::size_t> shard_of_;  // node -> owning shard
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<phy::RandomWaypoint> mobility_;  // moves topo_
  FlowTable flows_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Declared after shards_ (it holds raw Simulator pointers) and before
  // the endpoints; null under K = 1.
  std::unique_ptr<sim::ShardedRunner> runner_;
  bool started_ = false;

  // Endpoint storage (stable addresses; destroyed before nodes/macs by
  // reverse member order).
  std::vector<std::unique_ptr<core::TransportSender>> senders_;
  std::vector<std::unique_ptr<core::TransportReceiver>> receivers_;
};

}  // namespace jtp::net
