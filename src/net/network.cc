#include "net/network.h"

#include <stdexcept>
#include <utility>

#include "phy/partition.h"

namespace jtp::net {

std::string shard_config_error(std::size_t shards, mac::Mac mac,
                               bool mobile) {
  if (shards <= 1) return "";
  const std::string k = "shards=" + std::to_string(shards);
  if (mobile)
    return k + " needs a static field: mobile runs (speed > 0) do not shard";
  if (mac != mac::Mac::kTdma && mac != mac::Mac::kTdmaReuse)
    return k + " needs mac=tdma or mac=tdma_reuse: " + mac::mac_name(mac) +
           " runs do not shard";
  return "";
}

Network::Shard::Shard(const NetworkConfig& cfg, const phy::Topology& topo)
    : channel(cfg.channel, sim::Rng(cfg.seed).derive("channel")),
      energy(topo.size(), cfg.radio),
      routing(std::make_unique<routing::LinkStateRouting>(sim, topo,
                                                          cfg.routing)),
      env(sim, pool) {
  // The link layer comes from make_fabric: one fabric per shard, one
  // MacIface per node. MAC construction draws no randomness and
  // schedules no events, and the TDMA schedule/coloring is a pure
  // function of seed and topology — every shard's replica is identical,
  // and only the MACs of nodes the shard owns ever run.
  const mac::MacContext mctx{sim,     topo, channel, energy,
                             cfg.slot_duration_s, cfg.seed, cfg.mac};
  fabric = mac::make_fabric(cfg.mac_kind, mctx);
}

Network::Network(phy::Topology topology, NetworkConfig cfg)
    : cfg_(cfg), rng_(cfg.seed), topo_(std::move(topology)) {
  const std::string why = shard_config_error(cfg_.shards, cfg_.mac_kind,
                                             cfg_.mobility.has_value());
  if (!why.empty()) throw std::invalid_argument("Network: " + why);
  // Size the channel's per-link state tables from the node count when the
  // scenario didn't: a connected random field carries ~4 links/node, and
  // the reserve is what keeps the hot-path lookup rehash-free.
  if (cfg_.channel.expected_links == 0)
    cfg_.channel.expected_links = 4 * topo_.size();
  // Spatially contiguous strips: cross-shard traffic only crosses strip
  // boundaries, so almost all deliveries stay on the owning shard's
  // zero-alloc pipeline. May yield fewer shards than asked for.
  const phy::Partition part =
      phy::partition_strips(topo_, cfg_.shards == 0 ? 1 : cfg_.shards);
  shard_of_ = part.assignment;
  shards_.reserve(part.shard_count);
  for (std::size_t s = 0; s < part.shard_count; ++s)
    shards_.push_back(std::make_unique<Shard>(cfg_, topo_));

  if (cfg_.mobility)
    mobility_ = std::make_unique<phy::RandomWaypoint>(
        shards_[0]->sim, topo_, *cfg_.mobility, rng_.derive("mobility"));
  // Successful transmissions land at the destination node's stack
  // through dispatch_delivery, which routes the landing to the
  // destination's shard (under K = 1, the same shard). Only the owning
  // shard's replica of a node's MAC ever runs, so only it is wired.
  nodes_.reserve(topo_.size());
  for (core::NodeId id = 0; id < topo_.size(); ++id) {
    Shard& sh = shard_at(id);
    mac::MacIface& m = sh.fabric->mac_of(id);
    nodes_.push_back(std::make_unique<Node>(id, m, *sh.routing, flows_,
                                            sh.pool, cfg_.node));
    m.set_deliver([this](double delay_s, core::PacketPtr&& p,
                         core::NodeId from, core::NodeId to) {
      dispatch_delivery(delay_s, std::move(p), from, to);
    });
  }
  if (shards_.size() > 1) {
    std::vector<sim::Simulator*> sims;
    sims.reserve(shards_.size());
    for (auto& sh : shards_) sims.push_back(&sh->sim);
    sim::ShardedRunner::Config rcfg;
    rcfg.lookahead = cfg_.slot_duration_s;
    runner_ = std::make_unique<sim::ShardedRunner>(std::move(sims), rcfg);
  }
}

Network::~Network() = default;

void Network::dispatch_delivery(double delay_s, core::PacketPtr&& p,
                                core::NodeId from, core::NodeId to) {
  const std::size_t sf = shard_of_[from];
  const std::size_t st = shard_of_[to];
  sim::Simulator& ssim = shards_[sf]->sim;
  // The tie comes from the stream of whatever owner is executing (the
  // sender's transmit event): that owner's draw history is identical
  // for every shard count, so so is the key. The event executes as the
  // receiver (exec_owner = to + 1): everything the receiving stack
  // schedules draws from the receiver's stream.
  const std::uint64_t tie = ssim.draw_tie(ssim.context());
  const double at = ssim.now() + delay_s;
  if (sf == st) {
    ssim.at_keyed(at, tie, to + 1,
                  [this, q = std::move(p), from, to]() mutable {
                    execute_delivery(std::move(q), from, to);
                  });
    return;
  }
  // Cross-shard: the packet bytes move out of the sender shard's pool
  // slot (recycled here, on the sender's thread) and ride the mailbox
  // in a self-owned heap packet; the receiving shard re-pools them at
  // execution time. Two allocations per boundary crossing, boundary
  // crossings only.
  auto payload = std::make_shared<core::Packet>(std::move(*p));
  p.reset();
  runner_->post(sf, st, at, tie, to + 1, [this, payload, from, to]() {
    core::PacketPtr q = shards_[shard_of_[to]]->pool.make(
        std::move(*payload));
    execute_delivery(std::move(q), from, to);
  });
}

void Network::execute_delivery(core::PacketPtr&& p, core::NodeId from,
                               core::NodeId to) {
  // Receive energy is charged here and nowhere else, on the shard that
  // owns the receiver's tally (shard-invariant accrual order: all of
  // node `to`'s charges happen in its own shard's event order).
  shard_at(to).energy.charge_rx(to, p->size_bits());
  nodes_.at(to)->handle_delivery(std::move(p), from);
}

void Network::schedule_at_node(core::NodeId id, double at,
                               std::function<void()> fn) {
  sim::Simulator& s = shard_at(id).sim;
  s.at_keyed(at, s.draw_tie(0), id + 1, std::move(fn));
}

void Network::defer_from_to(core::NodeId from, core::NodeId to, double delay,
                            std::function<void()> fn) {
  const std::size_t sf = shard_of_[from];
  const std::size_t st = shard_of_[to];
  sim::Simulator& ssim = shards_[sf]->sim;
  const std::uint32_t owner = ssim.context();
  const std::uint64_t tie = ssim.draw_tie(owner);
  const double at = ssim.now() + delay;
  if (sf == st) {
    ssim.at_keyed(at, tie, owner, std::move(fn));
    return;
  }
  if (delay < cfg_.slot_duration_s)
    throw std::logic_error(
        "defer_from_to: cross-shard delay below one slot (the runner's "
        "lookahead); raise the delay or set NetworkConfig::shards = 1");
  runner_->post(sf, st, at, tie, owner, std::move(fn));
}

FlowHandle Network::add_flow(Proto proto, core::NodeId src, core::NodeId dst,
                             const FlowOptions& opt) {
  if (src >= size() || dst >= size())
    throw std::invalid_argument("add_flow: endpoint out of range");
  // No route leads from a node to itself: such a flow would route-drop
  // every packet and never finish.
  if (src == dst)
    throw std::invalid_argument("add_flow: src and dst are the same node");

  // Path facts for make_endpoints' defaults: the MAC's per-node share,
  // current hop count, and a pessimistic (with-retries) RTT estimate.
  // Shard 0's replicas answer; every shard's copies are identical.
  PathInfo path;
  path.node_capacity_pps = shards_[0]->fabric->node_capacity_pps();
  path.hops = shards_[0]->routing->hops(src, dst).value_or(1);
  path.rtt_estimate_s =
      2.0 * path.hops * shards_[0]->fabric->frame_duration_s() * 1.5;

  const core::FlowId flow = next_flow_id_++;
  TransportEndpoints eps =
      make_endpoints(proto, *this, flow, src, dst, opt, path);
  auto* snd = eps.sender.get();
  auto* rcv = eps.receiver.get();
  senders_.push_back(std::move(eps.sender));
  receivers_.push_back(std::move(eps.receiver));
  // Data addressed to dst reaches rcv, ACKs addressed to src reach snd.
  flows_.register_flow(flow, hop_policy(proto), snd, rcv);

  FlowHandle h;
  h.proto = proto;
  h.id = flow;
  h.src = src;
  h.dst = dst;
  h.sender = snd;
  h.receiver = rcv;
  return h;
}

void Network::run_until(double t) {
  if (!started_) {
    started_ = true;
    for (auto& sh : shards_) sh->routing->start();
    // Keep routes reasonably fresh under motion: the periodic link-state
    // refresh picks up the topology's generation counter; no per-move
    // recompute (that would be an oracle, and the staleness is part of
    // what Fig. 11 measures).
    if (mobility_) mobility_->start();
  }
  if (runner_)
    runner_->run_until(t);
  else
    shards_[0]->sim.run_until(t);
}

std::uint64_t Network::total_queue_drops() const {
  std::uint64_t n = 0;
  for (core::NodeId i = 0; i < size(); ++i)
    n += shards_[shard_of_[i]]->fabric->mac_of(i).queue_drops();
  return n;
}
std::uint64_t Network::total_attempt_drops() const {
  std::uint64_t n = 0;
  for (core::NodeId i = 0; i < size(); ++i)
    n += shards_[shard_of_[i]]->fabric->mac_of(i).attempt_exhausted_drops();
  return n;
}
std::uint64_t Network::total_energy_budget_drops() const {
  std::uint64_t n = 0;
  for (core::NodeId i = 0; i < size(); ++i)
    n += shards_[shard_of_[i]]->fabric->mac_of(i).energy_budget_drops();
  return n;
}
std::uint64_t Network::total_cache_retransmissions() const {
  std::uint64_t n = 0;
  for (const auto& nd : nodes_) n += nd->ijtp().cache_retransmissions();
  return n;
}
std::uint64_t Network::total_transmissions() const {
  std::uint64_t n = 0;
  for (core::NodeId i = 0; i < size(); ++i)
    n += shards_[shard_of_[i]]->fabric->mac_of(i).transmissions();
  return n;
}
std::uint64_t Network::total_route_drops() const {
  std::uint64_t n = 0;
  for (const auto& nd : nodes_) n += nd->route_drops();
  return n;
}
std::uint64_t Network::total_events_executed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sim.events_executed();
  return n;
}

core::Joules Network::node_energy(core::NodeId id) const {
  return shards_[shard_of_.at(id)]->energy.node_energy(id);
}
core::Joules Network::total_energy() const {
  core::Joules j = 0.0;
  for (core::NodeId i = 0; i < size(); ++i) j += node_energy(i);
  return j;
}
std::vector<core::Joules> Network::per_node_energy() const {
  std::vector<core::Joules> v(size());
  for (core::NodeId i = 0; i < size(); ++i) v[i] = node_energy(i);
  return v;
}

}  // namespace jtp::net
