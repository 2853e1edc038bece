// Classic TDMA: SlottedMac over the identity-colored SlotSchedule, the
// paper's one pseudo-random slot per node per n-slot frame. The node-level
// TdmaSchedule with the same seed is the reference for which node owns a
// slot (tdma_schedule_test pins that the two agree slot for slot).
#include "mac/slotted.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/packet_pool.h"
#include "mac/tdma_schedule.h"
#include "phy/channel.h"
#include "phy/energy_model.h"
#include "phy/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace jtp::mac {
namespace {

struct Rig {
  explicit Rig(double loss = 0.0, std::size_t n = 2, MacConfig mc = {})
      : topo(phy::Topology::linear(n, 30.0, 40.0)),
        schedule(topo, 0.01, 7, std::nullopt),
        reference(n, 0.01, 7),
        channel(make_channel_cfg(loss), sim::Rng(3)),
        energy(n, {}),
        macs() {
    for (core::NodeId id = 0; id < n; ++id)
      macs.push_back(std::make_unique<SlottedMac>(sim, schedule, channel,
                                                  energy, id, mc));
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
    p->flow = 1;
    p->src = 1;
    p->dst = 0;
    return p;
  }

  core::PacketPool pool;  // before sim: pending events hold handles
  sim::Simulator sim;
  phy::Topology topo;
  SlotSchedule schedule;
  TdmaSchedule reference;  // owner() per slot
  phy::Channel channel;
  phy::EnergyModel energy;
  std::vector<std::unique_ptr<SlottedMac>> macs;
};

TEST(TdmaMac, DeliversOverLosslessLink) {
  Rig r;
  std::vector<core::Packet> delivered;
  r.macs[0]->set_deliver(testing::land(
      r.sim, [&](core::PacketPtr&& p, core::NodeId from, core::NodeId to) {
        EXPECT_EQ(from, 0u);
        EXPECT_EQ(to, 1u);
        delivered.push_back(std::move(*p));
      }));
  r.macs[0]->enqueue(r.data(), 1);
  r.sim.run_until(1.0);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(r.macs[0]->deliveries(), 1u);
  EXPECT_EQ(r.macs[0]->transmissions(), 1u);
}

TEST(TdmaMac, TransmitsOnlyInOwnedSlots) {
  Rig r;
  double tx_time = -1.0;
  r.macs[0]->set_deliver(testing::land(r.sim, testing::discard));
  r.macs[0]->set_pre_xmit([&](core::Packet&, core::NodeId,
                              const core::LinkView&, core::Joules,
                              bool) -> PreXmitDecision {
    tx_time = r.sim.now();
    return {false, 1};
  });
  r.macs[0]->enqueue(r.data(), 1);
  r.sim.run_until(1.0);
  ASSERT_GE(tx_time, 0.0);
  const auto slot = r.schedule.slot_at(tx_time);
  EXPECT_EQ(r.reference.owner(slot), 0u);
  EXPECT_DOUBLE_EQ(r.schedule.slot_start(slot), tx_time);
}

TEST(TdmaMac, QueueOverflowDrops) {
  MacConfig mc;
  mc.queue_capacity_packets = 3;
  Rig r(0.0, 2, mc);
  r.macs[0]->set_deliver(testing::land(r.sim, testing::discard));
  for (core::SeqNo s = 0; s < 5; ++s) r.macs[0]->enqueue(r.data(s), 1);
  EXPECT_EQ(r.macs[0]->queue_drops(), 2u);
  EXPECT_EQ(r.macs[0]->queue_length(), 3u);
}

TEST(TdmaMac, RetriesUntilAttemptBudgetExhausted) {
  Rig r(/*loss=*/1.0);  // every transmission fails
  r.macs[0]->set_pre_xmit([](core::Packet&, core::NodeId,
                             const core::LinkView&, core::Joules,
                             bool) -> PreXmitDecision {
    return {false, 4};
  });
  r.macs[0]->enqueue(r.data(), 1);
  r.sim.run_until(5.0);
  EXPECT_EQ(r.macs[0]->transmissions(), 4u);
  EXPECT_EQ(r.macs[0]->attempt_exhausted_drops(), 1u);
  EXPECT_EQ(r.macs[0]->deliveries(), 0u);
}

TEST(TdmaMac, PreXmitDropConsumesNoTransmission) {
  Rig r;
  r.macs[0]->set_pre_xmit([](core::Packet&, core::NodeId,
                             const core::LinkView&, core::Joules,
                             bool) -> PreXmitDecision {
    return {true, 0};  // drop (energy budget)
  });
  r.macs[0]->enqueue(r.data(), 1);
  r.sim.run_until(1.0);
  EXPECT_EQ(r.macs[0]->transmissions(), 0u);
  EXPECT_EQ(r.macs[0]->energy_budget_drops(), 1u);
  EXPECT_DOUBLE_EQ(r.energy.total_energy(), 0.0);
}

TEST(TdmaMac, FirstAttemptFlagOnlyOnce) {
  Rig r(/*loss=*/1.0);
  int firsts = 0, total = 0;
  r.macs[0]->set_pre_xmit([&](core::Packet&, core::NodeId,
                              const core::LinkView&, core::Joules,
                              bool first) -> PreXmitDecision {
    ++total;
    if (first) ++firsts;
    return {false, 3};
  });
  r.macs[0]->enqueue(r.data(), 1);
  r.sim.run_until(5.0);
  EXPECT_EQ(total, 3);
  EXPECT_EQ(firsts, 1);
}

TEST(TdmaMac, FifoOrderPreserved) {
  Rig r;
  std::vector<core::SeqNo> order;
  r.macs[0]->set_deliver(testing::land(
      r.sim, [&](core::PacketPtr&& p, core::NodeId, core::NodeId) {
        order.push_back(p->seq);
      }));
  for (core::SeqNo s = 0; s < 5; ++s) r.macs[0]->enqueue(r.data(s), 1);
  r.sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<core::SeqNo>{0, 1, 2, 3, 4}));
}

TEST(TdmaMac, LossEstimatorLearnsFromAttempts) {
  Rig r(/*loss=*/0.3, 2);
  r.macs[0]->set_deliver(testing::land(r.sim, testing::discard));
  // Keep feeding packets; after many, the loss estimate approaches 0.3.
  for (core::SeqNo s = 0; s < 2000; ++s) r.macs[0]->enqueue(r.data(s), 1);
  r.sim.run_until(100.0);
  // Only a subset was transmitted (queue is capped at 50), but enough.
  EXPECT_NEAR(r.macs[0]->estimator().loss_rate(1), 0.3, 0.15);
}

TEST(TdmaMac, AttemptTraceFiresOnFirstAttemptOfData) {
  Rig r;
  std::vector<int> budgets;
  r.macs[0]->set_deliver(testing::land(r.sim, testing::discard));
  r.macs[0]->set_pre_xmit([](core::Packet&, core::NodeId,
                             const core::LinkView&, core::Joules,
                             bool) -> PreXmitDecision {
    return {false, 3};
  });
  r.macs[0]->set_attempt_trace(
      [&](sim::Time, const core::Packet&, int m) { budgets.push_back(m); });
  r.macs[0]->enqueue(r.data(0), 1);
  r.macs[0]->enqueue(r.data(1), 1);
  r.sim.run_until(2.0);
  EXPECT_EQ(budgets, (std::vector<int>{3, 3}));
}

TEST(TdmaMac, CapacityIsOnePacketPerOwnedSlot) {
  // Regression: a node must never transmit more than once per owned slot,
  // i.e. at most one packet per frame. Saturate the queue and check the
  // delivery rate equals the TDMA share.
  Rig r;
  int delivered = 0;
  r.macs[0]->set_deliver(testing::land(
      r.sim, [&](core::PacketPtr&&, core::NodeId, core::NodeId) {
        ++delivered;
      }));
  for (core::SeqNo s = 0; s < 50; ++s) r.macs[0]->enqueue(r.data(s), 1);
  // 2 nodes, 0.01 s slots => frame 0.02 s => 50 pps share. In 0.5 s the
  // node may send at most 25+1 packets.
  r.sim.run_until(0.5);
  EXPECT_LE(delivered, 26);
  EXPECT_GE(delivered, 20);
}

TEST(TdmaMac, DistinctSlotsForConsecutivePackets) {
  Rig r;
  std::vector<std::uint64_t> slots;
  r.macs[0]->set_deliver(testing::land(r.sim, testing::discard));
  r.macs[0]->set_pre_xmit([&](core::Packet&, core::NodeId,
                              const core::LinkView&, core::Joules,
                              bool) -> PreXmitDecision {
    slots.push_back(r.schedule.slot_at(r.sim.now()));
    return {false, 1};
  });
  for (core::SeqNo s = 0; s < 10; ++s) r.macs[0]->enqueue(r.data(s), 1);
  r.sim.run_until(1.0);
  ASSERT_EQ(slots.size(), 10u);
  for (std::size_t i = 1; i < slots.size(); ++i)
    EXPECT_GT(slots[i], slots[i - 1]);
}

TEST(TdmaMac, AcksJumpAheadOfDataBacklog) {
  // Control traffic must not queue behind data: an ACK enqueued after 20
  // data packets is still transmitted in the node's next owned slot.
  Rig r;
  std::vector<bool> order;  // true = ack
  r.macs[0]->set_deliver(testing::land(
      r.sim, [&](core::PacketPtr&& p, core::NodeId, core::NodeId) {
        order.push_back(p->is_ack());
      }));
  for (core::SeqNo s = 0; s < 20; ++s) r.macs[0]->enqueue(r.data(s), 1);
  core::PacketPtr ack = r.ack_packet();
  ack->src = 0;
  ack->dst = 1;
  ack->ack = core::AckHeader{};
  r.macs[0]->enqueue(std::move(ack), 1);
  r.sim.run_until(2.0);
  ASSERT_GE(order.size(), 3u);
  // The ACK must appear among the first couple of deliveries, far before
  // the 21st (FIFO) position.
  bool early_ack = order[0] || order[1];
  EXPECT_TRUE(early_ack);
}

TEST(TdmaMac, SeparateQueueCapacitiesForControlAndData) {
  MacConfig mc;
  mc.queue_capacity_packets = 2;
  Rig r(0.0, 2, mc);
  r.macs[0]->set_deliver(testing::land(r.sim, testing::discard));
  // Fill the data queue.
  for (core::SeqNo s = 0; s < 4; ++s) r.macs[0]->enqueue(r.data(s), 1);
  EXPECT_EQ(r.macs[0]->queue_drops(), 2u);
  // ACKs still get in: they have their own queue.
  core::PacketPtr ack = r.ack_packet();
  ack->ack = core::AckHeader{};
  EXPECT_TRUE(r.macs[0]->enqueue(std::move(ack), 1));
}

TEST(TdmaMac, TwoMacsShareTheMediumFairly) {
  Rig r(0.0, 2);
  int d0 = 0, d1 = 0;
  r.macs[0]->set_deliver(testing::land(
      r.sim, [&](core::PacketPtr&&, core::NodeId, core::NodeId) { ++d0; }));
  r.macs[1]->set_deliver(testing::land(
      r.sim, [&](core::PacketPtr&&, core::NodeId, core::NodeId) { ++d1; }));
  for (core::SeqNo s = 0; s < 40; ++s) {
    r.macs[0]->enqueue(r.data(s), 1);
    core::PacketPtr p = r.data(s);
    p->src = 1;
    p->dst = 0;
    r.macs[1]->enqueue(std::move(p), 0);
  }
  r.sim.run_until(0.01 * 2 * 45);  // 45 frames
  EXPECT_EQ(d0, 40);
  EXPECT_EQ(d1, 40);
}

}  // namespace
}  // namespace jtp::mac
