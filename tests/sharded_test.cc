// Tests for the sharded event loop: the spatial partitioner, the keyed
// deterministic event ordering it relies on, and the ShardedRunner's
// conservative-lookahead protocol — including the horizon-boundary case
// where a cross-shard event lands exactly at the earliest time the
// lookahead contract allows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "phy/partition.h"
#include "phy/topology.h"
#include "sim/random.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

namespace jtp {
namespace {

// --------------------------- partitioner -------------------------------

TEST(Partition, SingleShardIsIdentity) {
  auto topo = phy::Topology::linear(10, 30.0, 40.0);
  const auto p = phy::partition_strips(topo, 1);
  EXPECT_EQ(p.shard_count, 1u);
  for (core::NodeId i = 0; i < 10; ++i) EXPECT_EQ(p.shard_of(i), 0u);
}

TEST(Partition, ZeroShardsTreatedAsOne) {
  auto topo = phy::Topology::linear(4, 30.0, 40.0);
  const auto p = phy::partition_strips(topo, 0);
  EXPECT_EQ(p.shard_count, 1u);
}

TEST(Partition, StripsAreContiguousLeftToRight) {
  sim::Rng rng(7);
  auto prng = rng.derive("placement");
  auto topo = phy::Topology::random_connected(100, 300.0, 40.0, prng);
  const auto p = phy::partition_strips(topo, 4);
  ASSERT_GE(p.shard_count, 2u);
  ASSERT_LE(p.shard_count, 4u);

  // Every node lands in a shard; nodes in the same x-strip share one, and
  // shard ids never decrease as strips move left to right.
  const double w = topo.radio_range();
  std::vector<long> strip_shard;  // strip index -> shard (-1 = unseen)
  for (core::NodeId i = 0; i < topo.size(); ++i) {
    ASSERT_LT(p.shard_of(i), p.shard_count);
    const auto strip =
        static_cast<std::size_t>(std::floor(topo.position(i).x / w));
    if (strip_shard.size() <= strip) strip_shard.resize(strip + 1, -1);
    if (strip_shard[strip] < 0)
      strip_shard[strip] = static_cast<long>(p.shard_of(i));
    EXPECT_EQ(static_cast<std::size_t>(strip_shard[strip]), p.shard_of(i));
  }
  long prev = 0;
  for (const long s : strip_shard) {
    if (s < 0) continue;  // unoccupied strip
    EXPECT_GE(s, prev);
    EXPECT_LE(s, prev + 1);  // contiguous run of ids, no gaps
    prev = s;
  }

  // Every shard is non-empty and no shard hoards the field.
  std::vector<std::size_t> sizes(p.shard_count, 0);
  for (core::NodeId i = 0; i < topo.size(); ++i) ++sizes[p.shard_of(i)];
  for (const auto s : sizes) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, topo.size() - (p.shard_count - 1));
  }
}

TEST(Partition, DeterministicInTheTopology) {
  sim::Rng a(42), b(42);
  auto ra = a.derive("placement");
  auto rb = b.derive("placement");
  auto ta = phy::Topology::random_connected(60, 250.0, 40.0, ra);
  auto tb = phy::Topology::random_connected(60, 250.0, 40.0, rb);
  const auto pa = phy::partition_strips(ta, 4);
  const auto pb = phy::partition_strips(tb, 4);
  EXPECT_EQ(pa.shard_count, pb.shard_count);
  EXPECT_EQ(pa.assignment, pb.assignment);
}

TEST(Partition, ClampsToOccupiedStrips) {
  // 5 nodes spaced 30 m with a 40 m range occupy 4 strips (x = 0, 30,
  // 60, 90, 120 -> strips 0, 0, 1, 2, 3): asking for 8 shards must clamp.
  auto topo = phy::Topology::linear(5, 30.0, 40.0);
  const auto p = phy::partition_strips(topo, 8);
  EXPECT_LE(p.shard_count, 4u);
  EXPECT_GE(p.shard_count, 2u);
  std::vector<std::size_t> sizes(p.shard_count, 0);
  for (core::NodeId i = 0; i < topo.size(); ++i) ++sizes[p.shard_of(i)];
  for (const auto s : sizes) EXPECT_GE(s, 1u);
}

// ------------------------ keyed event ordering -------------------------

TEST(KeyedOrdering, EqualTimesRunInTieOrderNotInsertionOrder) {
  sim::Simulator sim;
  std::string order;
  // Owner 2 draws its key first but is inserted last; owner order (high
  // bits of the tie) must win over both insertion order and draw order.
  const auto tie_b = sim.draw_tie(2);
  const auto tie_a = sim.draw_tie(1);
  sim.at_keyed(1.0, tie_b, 2, [&] { order += 'b'; });
  sim.at_keyed(1.0, tie_a, 1, [&] { order += 'a'; });
  sim.run();
  EXPECT_EQ(order, "ab");
}

TEST(KeyedOrdering, DrawsAreAFunctionOfTheOwnerStreamAlone) {
  // Interleaving other owners' draws must not disturb owner 1's keys:
  // that independence is what makes keys shard-invariant.
  sim::Simulator a, b;
  const auto k0 = a.draw_tie(1);
  const auto k1 = a.draw_tie(1);
  (void)b.draw_tie(7);
  const auto m0 = b.draw_tie(1);
  (void)b.draw_tie(3);
  const auto m1 = b.draw_tie(1);
  EXPECT_EQ(k0, m0);
  EXPECT_EQ(k1, m1);
}

TEST(KeyedOrdering, ExecutionContextFollowsTheRunningEvent) {
  sim::Simulator sim;
  std::uint32_t seen = 0;
  sim.at_keyed(1.0, sim.draw_tie(5), 5, [&] { seen = sim.context(); });
  sim.run();
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(sim.context(), 0u);  // restored outside the loop
}

// --------------------------- sharded runner ----------------------------

// Reference harness: the same logical workload executed two ways — on
// one merged Simulator (the K=1 semantics) and on two Simulators under
// the ShardedRunner — recording the execution order of labelled events.
// The sequences must match exactly, including every tie at equal
// timestamps.
struct TwoShardRig {
  static constexpr double kLookahead = 1.0;

  // Single-simulator reference. Owner 1 lives on "shard 0", owner 2 on
  // "shard 1"; every owner-1 event at time s spawns an owner-2 event at
  // s + L (the minimum the lookahead contract allows).
  static std::vector<std::string> reference(int chain) {
    std::vector<std::string> log;
    sim::Simulator sim;
    for (int i = 0; i < chain; ++i) {
      const double s = static_cast<double>(i);
      sim.at_keyed(s, sim.draw_tie(1), 1, [&log, &sim, s, i] {
        log.push_back("tx" + std::to_string(i));
        sim.at_keyed(s + kLookahead, sim.draw_tie(1), 2,
                     [&log, i] { log.push_back("rx" + std::to_string(i)); });
      });
      // A local owner-2 event at exactly the cross event's timestamp:
      // the tie (owner 2 > owner 1) must order it after the delivery.
      sim.at_keyed(s + kLookahead, sim.draw_tie(2), 2,
                   [&log, i] { log.push_back("local" + std::to_string(i)); });
    }
    sim.run_until(static_cast<double>(chain) + kLookahead);
    return log;
  }

  // Sharded execution of the same workload. The cross event is posted
  // through the runner stamped exactly at sender-now + lookahead — the
  // horizon boundary — with the tie drawn from the sender's simulator,
  // exactly as net::Network does it.
  static std::vector<std::string> sharded(int chain) {
    std::vector<std::string> log;  // only shard 1 writes: no data race
    sim::Simulator s0, s1;
    sim::ShardedRunner runner({&s0, &s1}, {/*lookahead=*/kLookahead,
                                           /*ring_capacity=*/8});
    for (int i = 0; i < chain; ++i) {
      const double s = static_cast<double>(i);
      s0.at_keyed(s, s0.draw_tie(1), 1, [&, s, i] {
        runner.post(0, 1, s + kLookahead, s0.draw_tie(1), 2,
                    [&log, i] { log.push_back("rx" + std::to_string(i)); });
      });
      s1.at_keyed(s + kLookahead, s1.draw_tie(2), 2,
                  [&log, i] { log.push_back("local" + std::to_string(i)); });
    }
    runner.run_until(static_cast<double>(chain) + kLookahead);
    EXPECT_EQ(runner.messages_posted(), static_cast<std::uint64_t>(chain));
    return log;
  }
};

TEST(ShardedRunner, HorizonBoundaryDeliveryMatchesSingleSimOrder) {
  const auto ref = TwoShardRig::reference(16);
  const auto got = TwoShardRig::sharded(16);
  // The reference interleaves tx/rx/local; the sharded log holds shard
  // 1's events only, so compare against the reference restricted to
  // owner 2 (same node, same order — the determinism contract).
  std::vector<std::string> ref_rx;
  for (const auto& e : ref)
    if (e.rfind("tx", 0) != 0) ref_rx.push_back(e);
  EXPECT_EQ(got, ref_rx);
  // And the boundary really is contested: rx_i and local_i share a
  // timestamp, decided by tie alone (owner 1 draws rx, owner 2 local).
  ASSERT_GE(ref_rx.size(), 2u);
  EXPECT_EQ(ref_rx[0], "rx0");
  EXPECT_EQ(ref_rx[1], "local0");
}

TEST(ShardedRunner, RepeatedRunUntilIsSerializable) {
  sim::Simulator s0, s1;
  sim::ShardedRunner runner({&s0, &s1}, {1.0, 8});
  std::vector<int> hits;  // shard 1 only
  s0.at_keyed(0.5, s0.draw_tie(1), 1, [&] {
    runner.post(0, 1, 1.5, s0.draw_tie(1), 2, [&] { hits.push_back(1); });
  });
  s0.at_keyed(4.0, s0.draw_tie(1), 1, [&] {
    runner.post(0, 1, 5.0, s0.draw_tie(1), 2, [&] { hits.push_back(2); });
  });
  runner.run_until(2.0);
  EXPECT_EQ(hits, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(s0.now(), 2.0);
  EXPECT_DOUBLE_EQ(s1.now(), 2.0);
  runner.run_until(6.0);
  EXPECT_EQ(hits, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(s0.now(), 6.0);
  EXPECT_DOUBLE_EQ(s1.now(), 6.0);
}

TEST(ShardedRunner, TinyRingBackpressuresWithoutLossOrReorder) {
  // Capacity 2 with a 32-message burst: the producer must spin-and-drain
  // its way through, never dropping or reordering.
  sim::Simulator s0, s1;
  sim::ShardedRunner runner({&s0, &s1}, {1.0, 2});
  std::vector<int> got;
  s0.at_keyed(0.0, s0.draw_tie(1), 1, [&] {
    for (int i = 0; i < 32; ++i)
      runner.post(0, 1, 1.0 + i * 1e-3, s0.draw_tie(1), 2,
                  [&got, i] { got.push_back(i); });
  });
  runner.run_until(2.0);
  ASSERT_EQ(got.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(got[i], i);
}

TEST(ShardedRunner, PostAfterReceiverExitLandsOnNextRun) {
  // Shard 1 has nothing below t and exits immediately; shard 0 then
  // posts past t. The message must survive into the next run_until.
  sim::Simulator s0, s1;
  sim::ShardedRunner runner({&s0, &s1}, {1.0, 8});
  bool landed = false;
  s0.at_keyed(1.0, s0.draw_tie(1), 1, [&] {
    runner.post(0, 1, 2.0, s0.draw_tie(1), 2, [&] { landed = true; });
  });
  runner.run_until(1.0);
  EXPECT_FALSE(landed);
  runner.run_until(2.0);
  EXPECT_TRUE(landed);
}

TEST(ShardedRunner, WorkerExceptionPropagatesToCaller) {
  sim::Simulator s0, s1;
  sim::ShardedRunner runner({&s0, &s1}, {1.0, 8});
  s0.at_keyed(0.5, s0.draw_tie(1), 1,
              [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(runner.run_until(1.0), std::runtime_error);
}

}  // namespace
}  // namespace jtp
