#include "exp/workload.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace jtp::exp {

FlowManager::FlowManager(net::Network& network, Proto proto)
    : net_(network), proto_(proto) {
  if (!net::caching_allowed(proto) &&
      network.config().node.ijtp.caching_enabled)
    throw std::invalid_argument(
        "FlowManager: '" + proto_name(proto) +
        "' requires a network built with caching disabled "
        "(see exp::build / make_network_config)");
}

FlowManager::FlowHandle& FlowManager::create(core::NodeId src,
                                             core::NodeId dst,
                                             std::uint64_t total_packets,
                                             double start_delay_s,
                                             FlowOptions opt) {
  auto handle = std::make_unique<FlowHandle>();
  static_cast<net::FlowHandle&>(*handle) =
      net_.add_flow(proto_, src, dst, opt);
  const double start_at = net_.now() + start_delay_s;
  handle->start_time = start_at;
  handle->total_packets = total_packets;

  auto* snd = handle->sender;
  auto* rcv = handle->receiver;
  // Teardown: once the source has everything acknowledged, silence the
  // receiver's feedback machinery (connection close analogue) and record
  // the completion time for goodput accounting. The close runs on the
  // receiver's side one slot later (the minimum cross-shard handoff; the
  // same delay applies under one shard for shard-count invariance).
  snd->set_on_complete([this, rcv, src, dst, h = handle.get()] {
    h->completed_at = net_.now_at(src);
    net_.defer_from_to(src, dst, net_.slot_duration_s(),
                       [rcv] { rcv->stop(); });
  });
  // Each endpoint starts in its own shard, as its own node (the receiver
  // first: its handlers must be armed when the first data packet lands,
  // and under one shard the receiver-start event keeps its historical
  // place ahead of the sender-start event at the same instant).
  net_.schedule_at_node(dst, start_at, [rcv] { rcv->start(); });
  net_.schedule_at_node(src, start_at,
                        [snd, total_packets] { snd->start(total_packets); });

  flows_.push_back(std::move(handle));
  return *flows_.back();
}

RunMetrics FlowManager::collect(double duration_s) const {
  RunMetrics m;
  m.duration_s = duration_s;
  m.total_energy_j = net_.total_energy();
  m.per_node_energy_j = net_.per_node_energy();
  m.queue_drops = net_.total_queue_drops();
  m.attempt_drops = net_.total_attempt_drops();
  m.energy_budget_drops = net_.total_energy_budget_drops();
  m.cache_retransmissions = net_.total_cache_retransmissions();
  m.route_drops = net_.total_route_drops();
  m.transmissions = net_.total_transmissions();

  double goodput_sum = 0.0;
  double fair_sum = 0.0, fair_sq = 0.0;
  std::vector<double> completions;
  for (const auto& f : flows_) {
    m.delivered_payload_bits += f->delivered_bits();
    m.delivered_packets += f->delivered_packets();
    m.waived_packets += f->waived_packets();
    m.data_packets_sent += f->data_sent();
    m.source_retransmissions += f->source_rtx();
    m.acks_sent += f->acks_sent();
    const double x = static_cast<double>(f->delivered_packets());
    fair_sum += x;
    fair_sq += x * x;
    if (f->completed_at > 0)
      completions.push_back(f->completed_at - f->start_time);
    // Goodput denominator: a finished transfer is judged on its own
    // completion time, not the experiment horizon.
    const double end = f->completed_at > 0 ? f->completed_at : duration_s;
    const double active = end - f->start_time;
    if (active > 0) goodput_sum += f->delivered_bits() / active / 1e3;
  }
  if (!flows_.empty())
    m.per_flow_goodput_kbps_mean = goodput_sum / flows_.size();
  // Jain's fairness index over per-flow delivered packets.
  if (fair_sq > 0.0)
    m.jain_fairness = fair_sum * fair_sum /
                      (static_cast<double>(flows_.size()) * fair_sq);
  // p99 completion latency, nearest-rank, over finished transfers.
  m.flows_completed = completions.size();
  if (!completions.empty()) {
    std::sort(completions.begin(), completions.end());
    const std::size_t rank =
        (completions.size() * 99 + 99) / 100;  // ceil(0.99·n), 1-based
    m.p99_completion_s = completions[std::min(rank, completions.size()) - 1];
  }
  return m;
}

}  // namespace jtp::exp
