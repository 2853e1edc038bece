// Cross-MAC conformance suite: the behavioural contract every MAC
// discipline must honor, parameterized over mac::kAllMacs.
//
// mac/mac.h defines the seam (queue/attempt/retry state machine, pre-xmit
// and delivery hooks, LinkEstimator feed, drop counters); these tests pin
// it once for every discipline — classic TDMA, spatial-reuse TDMA, and
// CSMA/CA today, and any Mac value added to kAllMacs tomorrow: a new MAC
// passes this suite or it does not ship. NetworkDelivery pins where the
// receive energy is charged: by Network, once per landed frame.
#include "mac/fabric.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/packet_pool.h"
#include "core/reliability.h"
#include "exp/scenario.h"
#include "exp/workload.h"
#include "mac/csma_mac.h"
#include "mac/mac.h"
#include "net/network.h"
#include "phy/channel.h"
#include "phy/energy_model.h"
#include "phy/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace jtp::mac {
namespace {

// A fabric built by make_fabric — the same path Network takes — on a
// small linear field.
struct FabricRig {
  explicit FabricRig(Mac m, double loss = 0.0, std::size_t n = 2,
                     MacConfig mc = {})
      : topo(phy::Topology::linear(n, 30.0, 40.0)),
        channel(make_channel_cfg(loss), sim::Rng(3)),
        energy(n, {}) {
    const MacContext ctx{sim, topo, channel, energy, /*slot=*/0.01,
                         /*seed=*/7, mc};
    fabric = make_fabric(m, ctx);
    for (core::NodeId id = 0; id < n; ++id)
      fabric->mac_of(id).set_deliver(testing::land(sim, testing::discard));
  }
  static phy::ChannelConfig make_channel_cfg(double loss) {
    phy::ChannelConfig c;
    c.fading_enabled = false;
    c.loss_good = loss;
    return c;
  }
  core::PacketPtr data(core::SeqNo seq = 0) {
    core::PacketPtr p = pool.make();
    p->type = core::PacketType::kData;
    p->flow = 1;
    p->src = 0;
    p->dst = 1;
    p->seq = seq;
    return p;
  }
  core::PacketPtr ack_packet() {
    core::PacketPtr p = pool.make();
    p->type = core::PacketType::kAck;
    p->ack = core::AckHeader{};
    p->flow = 1;
    p->src = 0;
    p->dst = 1;
    return p;
  }

  core::PacketPool pool;  // before sim: pending events hold handles
  sim::Simulator sim;
  phy::Topology topo;
  phy::Channel channel;
  phy::EnergyModel energy;
  std::unique_ptr<MacFabric> fabric;
};

class MacConformance : public ::testing::TestWithParam<Mac> {};

INSTANTIATE_TEST_SUITE_P(
    AllMacs, MacConformance,
    ::testing::ValuesIn(kAllMacs),
    [](const ::testing::TestParamInfo<Mac>& info) {
      return mac_name(info.param);
    });

TEST_P(MacConformance, DeliversOverLosslessLink) {
  FabricRig r(GetParam());
  int delivered = 0;
  r.fabric->mac_of(0).set_deliver(testing::land(
      r.sim, [&](core::PacketPtr&& p, core::NodeId from, core::NodeId to) {
        EXPECT_EQ(from, 0u);
        EXPECT_EQ(to, 1u);
        EXPECT_EQ(p->seq, 0u);
        ++delivered;
      }));
  r.fabric->mac_of(0).enqueue(r.data(), 1);
  r.sim.run_until(2.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(r.fabric->mac_of(0).deliveries(), 1u);
  EXPECT_EQ(r.fabric->mac_of(0).transmissions(), 1u);
  // The receiver's energy is the deliver hook's to charge, not the MAC's
  // (see NetworkDelivery below).
  EXPECT_DOUBLE_EQ(r.energy.node_energy(1), 0.0);
}

TEST_P(MacConformance, RetryAccountingMatchesEstimatorFeed) {
  // Every transmission fails: each of the k packets must burn exactly the
  // default attempt budget, be counted as an attempt-exhausted drop, and
  // feed the LinkEstimator a per-packet attempt count equal to that
  // budget — the per-link statistics transports rate their hops with.
  constexpr int kPackets = 3;
  FabricRig r(GetParam(), /*loss=*/1.0);
  auto& m = r.fabric->mac_of(0);
  for (core::SeqNo s = 0; s < kPackets; ++s) m.enqueue(r.data(s), 1);
  r.sim.run_until(10.0);
  const auto budget = static_cast<std::uint64_t>(core::kDefaultMaxAttempts);
  EXPECT_EQ(m.transmissions(), kPackets * budget);
  EXPECT_EQ(m.attempt_exhausted_drops(), kPackets);
  EXPECT_EQ(m.deliveries(), 0u);
  EXPECT_DOUBLE_EQ(m.estimator().avg_attempts(1),
                   static_cast<double>(budget));
  EXPECT_GT(m.estimator().loss_rate(1), 0.5);
}

TEST_P(MacConformance, SenderPaysOneChargePerAttempt) {
  // Half the attempts fail, so packets take retries: the sender pays the
  // transmit energy once per attempt that hit the air, first or not
  // (unitEnergy · (retries + 1) per packet), and the MAC charges the
  // receiver nothing — the deliver hook owns that charge.
  constexpr int kPackets = 20;
  FabricRig r(GetParam(), /*loss=*/0.5);
  auto& m = r.fabric->mac_of(0);
  for (core::SeqNo s = 0; s < kPackets; ++s) m.enqueue(r.data(s), 1);
  r.sim.run_until(20.0);
  EXPECT_EQ(m.queue_length(), 0u);
  EXPECT_GT(m.transmissions(), static_cast<std::uint64_t>(kPackets));
  const double bits = r.data()->size_bits();
  EXPECT_NEAR(r.energy.node_energy(0),
              static_cast<double>(m.transmissions()) *
                  r.energy.tx_energy(bits),
              1e-9);
  EXPECT_DOUBLE_EQ(r.energy.node_energy(1), 0.0);
}

TEST_P(MacConformance, PreXmitDropIsHonored) {
  // A pre-xmit veto (the energy-budget hook) must suppress the
  // transmission entirely: no air time, no sender energy, one
  // energy-budget drop.
  FabricRig r(GetParam());
  auto& m = r.fabric->mac_of(0);
  m.set_pre_xmit([](core::Packet&, core::NodeId, const core::LinkView&,
                    core::Joules, bool) -> PreXmitDecision {
    return {true, 0};
  });
  m.enqueue(r.data(), 1);
  r.sim.run_until(2.0);
  EXPECT_EQ(m.transmissions(), 0u);
  EXPECT_EQ(m.deliveries(), 0u);
  EXPECT_EQ(m.energy_budget_drops(), 1u);
  EXPECT_DOUBLE_EQ(r.energy.total_energy(), 0.0);
}

TEST_P(MacConformance, QueueFullDropsAndReportsFailure) {
  MacConfig mc;
  mc.queue_capacity_packets = 3;
  FabricRig r(GetParam(), 0.0, 2, mc);
  auto& m = r.fabric->mac_of(0);
  for (core::SeqNo s = 0; s < 3; ++s) EXPECT_TRUE(m.enqueue(r.data(s), 1));
  EXPECT_FALSE(m.enqueue(r.data(3), 1));
  EXPECT_FALSE(m.enqueue(r.data(4), 1));
  EXPECT_EQ(m.queue_drops(), 2u);
  EXPECT_EQ(m.queue_length(), 3u);
  // Control traffic has its own queue and must still get in.
  EXPECT_TRUE(m.enqueue(r.ack_packet(), 1));
}

TEST_P(MacConformance, ControlTrafficBypassesDataBacklog) {
  FabricRig r(GetParam());
  std::vector<bool> order;  // true = ack
  r.fabric->mac_of(0).set_deliver(testing::land(
      r.sim, [&](core::PacketPtr&& p, core::NodeId, core::NodeId) {
        order.push_back(p->is_ack());
      }));
  for (core::SeqNo s = 0; s < 10; ++s)
    r.fabric->mac_of(0).enqueue(r.data(s), 1);
  r.fabric->mac_of(0).enqueue(r.ack_packet(), 1);
  r.sim.run_until(2.0);
  ASSERT_GE(order.size(), 3u);
  EXPECT_TRUE(order[0] || order[1])
      << "ACK queued behind the full data backlog";
}

// ---- end-to-end conformance through the scenario layer -------------------

exp::ScenarioSpec chain_spec(Mac m) {
  auto spec = exp::preset("linear");
  spec.net_size = 4;
  spec.fading = false;
  spec.loss_good = 0.0;
  spec.mac = m;
  spec.workload.kind = exp::WorkloadKind::kEnds;
  spec.workload.n_flows = 1;
  spec.workload.transfer_packets = 30;
  return spec;
}

TEST_P(MacConformance, MultiHopBurstDeliversEndToEnd) {
  // A 30-packet transfer across a 3-hop chain must complete under every
  // discipline: queueing, per-hop retransmission, and delivery hand-off
  // compose across nodes, not just on one link.
  auto s = exp::build(chain_spec(GetParam()));
  s.network->run_until(120.0);
  const auto metrics = s.flows->collect(120.0);
  EXPECT_EQ(metrics.delivered_packets, 30u);
  ASSERT_EQ(s.flows->flows().size(), 1u);
  EXPECT_GE(s.flows->flows()[0]->completed_at, 0.0)
      << "transfer never completed";
  EXPECT_EQ(metrics.queue_drops + metrics.attempt_drops, 0u);
}

TEST_P(MacConformance, PinnedSeedRunsAreBitStable) {
  // Same spec, same seed => byte-identical metrics, per MAC. This is the
  // foundation of the committed-baseline CSVs and the --jobs determinism
  // gate; a MAC that draws from a shared RNG stream breaks it.
  auto spec = chain_spec(GetParam());
  spec.seed = 4242;
  spec.fading = true;  // exercise the channel's random process too
  spec.loss_good = 0.05;
  spec.workload.loss_tolerance = 0.1;
  auto run = [&] {
    auto s = exp::build(spec);
    s.network->run_until(60.0);
    return s.flows->collect(60.0);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.data_packets_sent, b.data_packets_sent);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.attempt_drops, b.attempt_drops);
  EXPECT_EQ(a.acks_sent, b.acks_sent);
  EXPECT_EQ(a.delivered_payload_bits, b.delivered_payload_bits);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);  // exact, not NEAR
}

// ---- where the receive energy is charged --------------------------------

class NetworkDelivery : public ::testing::TestWithParam<Mac> {};

INSTANTIATE_TEST_SUITE_P(
    AllMacs, NetworkDelivery, ::testing::ValuesIn(kAllMacs),
    [](const ::testing::TestParamInfo<Mac>& info) {
      return mac_name(info.param);
    });

TEST_P(NetworkDelivery, ChargesTheReceiverOncePerDeliveredFrame) {
  // One frame over one lossless hop: the MAC charges the sender for its
  // one attempt, and Network charges the receiver once, when the frame
  // lands.
  net::NetworkConfig cfg;
  cfg.mac_kind = GetParam();
  cfg.channel.fading_enabled = false;
  cfg.channel.loss_good = 0.0;
  net::Network net(phy::Topology::linear(2, 30.0, 40.0), cfg);
  core::PacketPtr p = net.packet_pool().make();
  p->type = core::PacketType::kData;
  p->flow = 1;
  p->src = 0;
  p->dst = 1;
  const double bits = p->size_bits();
  ASSERT_TRUE(net.mac_of(0).enqueue(std::move(p), 1));
  net.run_until(5.0);
  EXPECT_EQ(net.mac_of(0).deliveries(), 1u);
  EXPECT_DOUBLE_EQ(net.node_energy(0), net.energy().tx_energy(bits));
  EXPECT_DOUBLE_EQ(net.node_energy(1), net.energy().rx_energy(bits));
}

// ---- the shared medium's collision bookkeeping ---------------------------

// linear(3, 30, 40): 0 and 2 both hear 1 but not each other — the
// canonical hidden-terminal pair.

TEST(CsmaMedium, EarlyEndingHiddenTerminalStillCollides) {
  // Regression: an interferer that started first and left the air before
  // the victim's frame ended used to be pruned from the medium by any
  // intervening CCA, so the victim's end-of-frame verdict missed it.
  phy::Topology topo = phy::Topology::linear(3, 30.0, 40.0);
  ASSERT_TRUE(topo.in_range(2, 1));
  ASSERT_FALSE(topo.in_range(2, 0));  // hidden from the victim's sender
  CsmaMedium medium(topo, 0.0);

  const auto interferer = medium.begin_tx(2, 1, 0.0, 0.4);
  const auto victim = medium.begin_tx(0, 1, 0.2, 1.0);
  // Both frames are garbled at the common receiver, whichever ends first.
  EXPECT_TRUE(medium.finish_tx(interferer));
  EXPECT_FALSE(medium.busy(0, 0.5));  // CCA must not erase the verdict
  EXPECT_TRUE(medium.finish_tx(victim));
}

TEST(CsmaMedium, BackToBackOrInaudibleFramesDoNotCollide) {
  phy::Topology topo = phy::Topology::linear(3, 30.0, 40.0);
  CsmaMedium medium(topo, 0.0);

  // Half-open intervals: a frame ending exactly when the next begins
  // does not overlap it.
  const auto a = medium.begin_tx(2, 1, 0.0, 0.2);
  const auto b = medium.begin_tx(0, 1, 0.2, 0.4);
  EXPECT_FALSE(medium.finish_tx(a));
  EXPECT_FALSE(medium.finish_tx(b));

  // Overlapping but inaudible at the victim's receiver: 2 cannot reach 0.
  const auto victim = medium.begin_tx(1, 0, 1.0, 2.0);
  medium.begin_tx(2, 1, 1.5, 1.8);
  EXPECT_FALSE(medium.finish_tx(victim));
}

TEST(CsmaMedium, CcaTracksAudibleInFlightFramesOnly) {
  phy::Topology topo = phy::Topology::linear(3, 30.0, 40.0);
  CsmaMedium medium(topo, 0.0);
  const auto tx = medium.begin_tx(0, 1, 0.0, 1.0);
  EXPECT_TRUE(medium.busy(1, 0.5));
  EXPECT_FALSE(medium.busy(2, 0.5));  // out of carrier range
  EXPECT_FALSE(medium.busy(1, 1.0));  // half-open: gone at its end time
  medium.finish_tx(tx);
  EXPECT_FALSE(medium.busy(1, 0.5));  // record released with the frame
}

}  // namespace
}  // namespace jtp::mac
