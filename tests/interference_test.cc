// Safety and accounting of the 2-hop interference coloring behind the
// spatial-reuse TDMA MAC.
//
// The property that makes slot reuse collision-free: no two nodes that
// could interfere at any receiver share a color. The tests pin it with a
// brute-force conflict oracle on random fields (including translated
// fields with negative coordinates and post-churn layouts), plus the two
// analytic extremes — a clique needs n colors (reuse factor exactly 1)
// and a sparse chain needs exactly 3 (reuse > 1).
//
// The from-scratch pass reads conflicts from neighbor lists, so it is
// itself checked, color for color, against a greedy pass over the
// geometric conflict definition (greedy_bf).
//
// The InterferenceRepair suite pins the incremental path's exactness:
// after every batch of moves the repaired coloring must equal a
// from-scratch pass, color for color (small steps, cross-field teleports,
// negative coordinates, whole-field batches, move-ring overflow, and a
// random-waypoint-driven schedule). In assertion builds every repair also
// checks its lists against Topology::within_into.
#include "mac/interference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "mac/slotted.h"
#include "phy/mobility.h"
#include "phy/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace jtp::mac {
namespace {

// Brute-force oracle for the conflict relation the coloring must respect.
bool conflicts_bf(const phy::Topology& topo, core::NodeId a, core::NodeId b,
                  double margin) {
  const double r = topo.radio_range();
  if (phy::distance(topo.position(a), topo.position(b)) <=
      std::max(margin, 1.0) * r)
    return true;
  for (core::NodeId w = 0; w < topo.size(); ++w) {
    if (w == a || w == b) continue;
    if (phy::distance(topo.position(a), topo.position(w)) <= r &&
        phy::distance(topo.position(b), topo.position(w)) <= r)
      return true;
  }
  return false;
}

void expect_proper(const phy::Topology& topo, const Coloring& c,
                   double margin) {
  ASSERT_EQ(c.color.size(), topo.size());
  std::uint32_t max_seen = 0;
  for (core::NodeId a = 0; a < topo.size(); ++a) {
    max_seen = std::max(max_seen, c.color[a]);
    for (core::NodeId b = a + 1; b < topo.size(); ++b) {
      if (conflicts_bf(topo, a, b, margin)) {
        EXPECT_NE(c.color[a], c.color[b])
            << "nodes " << a << " and " << b << " interfere yet share color "
            << c.color[a];
      }
    }
  }
  EXPECT_EQ(c.colors_used, static_cast<std::size_t>(max_seen) + 1);
}

phy::Topology random_field(std::size_t n, double side, std::uint64_t seed) {
  sim::Rng rng(seed);
  auto prng = rng.derive("placement");
  return phy::Topology::random_connected(n, side, 40.0, prng);
}

// n nodes uniform in a side x side square with its lower-left corner at
// (origin, origin); no connectivity requirement, so sparse corners and
// isolated nodes are part of the mix.
phy::Topology scatter(std::size_t n, double side, double origin,
                      std::uint64_t seed) {
  phy::Topology topo(n, 40.0);
  sim::Rng rng(seed);
  for (core::NodeId i = 0; i < n; ++i)
    topo.set_position(i, {origin + rng.uniform(0.0, side),
                          origin + rng.uniform(0.0, side)});
  return topo;
}

// The greedy pass from geometry alone: ascending ids, each node taking the
// smallest color no lower-id conflicts_bf partner holds.
Coloring greedy_bf(const phy::Topology& topo, double margin) {
  Coloring c;
  c.color.assign(topo.size(), 0);
  for (core::NodeId a = 0; a < topo.size(); ++a) {
    std::vector<bool> taken(topo.size() + 1, false);
    for (core::NodeId b = 0; b < a; ++b)
      if (conflicts_bf(topo, a, b, margin)) taken[c.color[b]] = true;
    while (taken[c.color[a]]) ++c.color[a];
    c.colors_used = std::max<std::size_t>(c.colors_used, c.color[a] + 1);
  }
  return c;
}

TEST(InterferenceColoring, MatchesGeometricGreedyReference) {
  // The list-driven pass must color exactly like the greedy over the
  // geometric conflict definition: connected fields, a field straddling
  // the origin, and a sparse field in negative coordinates with isolated
  // nodes, at every margin up to the parser's maximum.
  const std::vector<phy::Topology> layouts = {
      random_field(60, 250.0, 7), scatter(150, 400.0, -200.0, 3),
      scatter(80, 600.0, -900.0, 5)};
  std::vector<core::NodeId> nbrs;
  std::size_t isolated = 0;
  for (core::NodeId i = 0; i < layouts[2].size(); ++i) {
    layouts[2].neighbors_into(i, nbrs);
    isolated += nbrs.empty() ? 1 : 0;
  }
  ASSERT_GT(isolated, 0u);
  for (const double margin : {1.0, 1.5, 2.0, 4.0})
    for (std::size_t k = 0; k < layouts.size(); ++k) {
      SCOPED_TRACE(::testing::Message()
                   << "layout " << k << " margin " << margin);
      const Coloring want = greedy_bf(layouts[k], margin);
      const Coloring got = color_interference(layouts[k], margin);
      EXPECT_EQ(got.color, want.color);
      EXPECT_EQ(got.colors_used, want.colors_used);
    }
}

TEST(InterferenceColoring, SafeOnRandomFields) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    auto topo = random_field(60, 250.0, seed);
    expect_proper(topo, color_interference(topo, 1.0), 1.0);
  }
}

TEST(InterferenceColoring, SafeUnderWidenedCarrierMargin) {
  auto topo = random_field(50, 220.0, 9);
  for (double margin : {1.0, 1.5, 2.0, 3.0})
    expect_proper(topo, color_interference(topo, margin), margin);
}

TEST(InterferenceColoring, TranslationInvariantAcrossNegativeCoords) {
  // The conflict graph only depends on pairwise distances, so shifting
  // the whole field — across the origin, into negative coordinates —
  // must reproduce the identical coloring (this also pins the grid's
  // negative-coordinate cell packing).
  auto topo = random_field(40, 200.0, 5);
  phy::Topology shifted = topo;
  for (core::NodeId i = 0; i < topo.size(); ++i) {
    const auto p = topo.position(i);
    shifted.set_position(i, {p.x - 137.5, p.y - 212.25});
  }
  const auto a = color_interference(topo, 1.0);
  const auto b = color_interference(shifted, 1.0);
  expect_proper(shifted, b, 1.0);
  EXPECT_EQ(a.color, b.color);
  EXPECT_EQ(a.colors_used, b.colors_used);
}

TEST(InterferenceColoring, SafeAfterChurn) {
  auto topo = random_field(50, 220.0, 11);
  sim::Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    for (int moves = 0; moves < 10; ++moves) {
      const auto id =
          static_cast<core::NodeId>(rng.integer(topo.size()));
      const auto p = topo.position(id);
      topo.set_position(id, {p.x + rng.uniform(-30.0, 30.0),
                             p.y + rng.uniform(-30.0, 30.0)});
    }
    expect_proper(topo, color_interference(topo, 1.0), 1.0);
  }
}

TEST(InterferenceColoring, CliqueNeedsNColors) {
  // Everyone within everyone's range: no reuse is possible, the frame
  // degenerates to classic TDMA and the reuse factor is exactly 1.
  constexpr std::size_t kN = 12;
  phy::Topology topo(kN, 40.0);
  sim::Rng rng(3);
  for (core::NodeId i = 0; i < kN; ++i)
    topo.set_position(i, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  const auto c = color_interference(topo, 1.0);
  expect_proper(topo, c, 1.0);
  EXPECT_EQ(c.colors_used, kN);

  SlotSchedule sched(topo, 0.01, 7, 1.0);
  const MacStats st = sched.stats();
  EXPECT_EQ(st.colors_used, kN);
  EXPECT_DOUBLE_EQ(st.reuse_factor, 1.0);
}

TEST(InterferenceColoring, SparseChainNeedsThreeColors) {
  // 30 m spacing, 40 m range: only adjacent nodes hear each other, and
  // nodes two apart share a witness — the conflict graph is the cube of
  // a path, which greedy colors with exactly 3. Far-apart nodes reuse
  // slots, so the reuse factor beats 1.
  const auto topo = phy::Topology::linear(12, 30.0, 40.0);
  const auto c = color_interference(topo, 1.0);
  expect_proper(topo, c, 1.0);
  EXPECT_EQ(c.colors_used, 3u);

  SlotSchedule sched(topo, 0.01, 7, 1.0);
  const MacStats st = sched.stats();
  EXPECT_EQ(st.colors_used, 3u);
  EXPECT_DOUBLE_EQ(st.reuse_factor, 4.0);
  EXPECT_GT(st.reuse_factor, 1.0);
}

// The ReuseSchedule suite: SlotSchedule under an interference margin,
// the tdma_reuse schedule.

TEST(ReuseSchedule, RecolorsOnlyWhenTopologyGenerationChanges) {
  auto topo = random_field(30, 180.0, 21);
  SlotSchedule sched(topo, 0.01, 7, 1.0);
  EXPECT_EQ(sched.stats().recolors, 1u);  // the construction-time coloring
  sched.ensure();
  sched.ensure();
  EXPECT_EQ(sched.stats().recolors, 1u);  // no churn => no recolor
  const auto p = topo.position(4);
  topo.set_position(4, {p.x + 5.0, p.y});
  EXPECT_EQ(sched.stats().recolors, 2u);  // stats() itself ensures
  EXPECT_EQ(sched.stats().recolors, 2u);
}

TEST(ReuseSchedule, SlotTimesAreFrameIndependent) {
  // slot_start is pure slot arithmetic: a recolor that changes the frame
  // length must not move slot boundaries (in-flight MAC timers rely on
  // this).
  auto topo = random_field(30, 180.0, 23);
  SlotSchedule sched(topo, 0.01, 7, 1.0);
  EXPECT_DOUBLE_EQ(sched.slot_start(17), 0.17);
  const auto p = topo.position(2);
  topo.set_position(2, {p.x + 40.0, p.y});
  sched.ensure();
  EXPECT_DOUBLE_EQ(sched.slot_start(17), 0.17);
  EXPECT_EQ(sched.slot_at(0.171), 17u);
  EXPECT_THROW(sched.slot_at(-0.01), std::invalid_argument);
}

TEST(ReuseSchedule, OwnedSlotsFollowColors) {
  const auto topo = phy::Topology::linear(9, 30.0, 40.0);
  SlotSchedule sched(topo, 0.01, 7, 1.0);
  // Nodes 0 and 3 are 90 m apart — independent, same color under the
  // 3-coloring of the chain; they own exactly the same slots.
  EXPECT_EQ(sched.color_of(0), sched.color_of(3));
  for (std::uint64_t from : {0ULL, 5ULL, 100ULL})
    EXPECT_EQ(sched.next_owned_slot_from(0, from),
              sched.next_owned_slot_from(3, from));
  // Conflicting neighbors never share a slot.
  EXPECT_NE(sched.color_of(0), sched.color_of(1));
  EXPECT_THROW(sched.color_of(99), std::out_of_range);
}

// ---- incremental repair vs the from-scratch oracle ----

::testing::AssertionResult matches_scratch(const phy::Topology& topo,
                                           const Coloring& c, double margin) {
  const Coloring fresh = color_interference(topo, margin);
  if (c.colors_used != fresh.colors_used)
    return ::testing::AssertionFailure()
           << "colors_used " << c.colors_used << ", from scratch "
           << fresh.colors_used;
  for (core::NodeId i = 0; i < topo.size(); ++i)
    if (c.color[i] != fresh.color[i])
      return ::testing::AssertionFailure()
             << "node " << i << " has color " << c.color[i]
             << ", from scratch " << fresh.color[i];
  return ::testing::AssertionSuccess();
}

enum class Move { kStep, kTeleport };

// For every margin and batch size: `rounds` batches of random moves (a
// 1 m step in a random direction, or a jump anywhere in the field), each
// followed by a repair over the move ring's movers and the oracle check.
void churn_against_scratch(std::size_t n, double side, double origin,
                           Move kind) {
  for (const double margin : {1.0, 1.5, 2.0, 4.0})
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}, n}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " margin=" << margin << " batch=" << batch);
      auto topo = scatter(n, side, origin, 100 + n);
      InterferenceColoring coloring(topo, margin);
      sim::Rng rng(7 + batch);
      std::vector<core::NodeId> movers;
      const int rounds = batch == n ? 3 : 12;
      for (int round = 0; round < rounds; ++round) {
        const std::uint64_t gen = topo.generation();
        for (std::size_t k = 0; k < batch; ++k) {
          const auto id = static_cast<core::NodeId>(rng.integer(n));
          const auto p = topo.position(id);
          if (kind == Move::kStep) {
            const double a = rng.uniform(0.0, 6.283185307179586);
            topo.set_position(id, {p.x + std::cos(a), p.y + std::sin(a)});
          } else {
            topo.set_position(id, {origin + rng.uniform(0.0, side),
                                   origin + rng.uniform(0.0, side)});
          }
        }
        ASSERT_TRUE(topo.moved_since(gen, movers));
        coloring.update(movers);
        ASSERT_TRUE(matches_scratch(topo, coloring.coloring(), margin))
            << "after round " << round;
      }
      EXPECT_EQ(coloring.stats().rebuilds, 1u);
      EXPECT_EQ(coloring.stats().repairs, static_cast<std::uint64_t>(rounds));
    }
}

TEST(InterferenceRepair, SmallStepsAcrossTheOriginMatchScratch) {
  // The field straddles the origin, so cells on both signs get crossed.
  churn_against_scratch(60, 250.0, -125.0, Move::kStep);
  churn_against_scratch(400, 650.0, -325.0, Move::kStep);
}

TEST(InterferenceRepair, CrossFieldTeleportsMatchScratch) {
  churn_against_scratch(60, 250.0, 0.0, Move::kTeleport);
  churn_against_scratch(400, 650.0, 0.0, Move::kTeleport);
}

TEST(InterferenceRepair, TeleportsInNegativeCoordinatesMatchScratch) {
  churn_against_scratch(60, 250.0, -1000.0, Move::kTeleport);
  churn_against_scratch(400, 650.0, -1000.0, Move::kTeleport);
}

TEST(InterferenceRepair, RepairedColoringsStaySafe) {
  // The brute-force safety oracle, independent of the greedy pass.
  for (const double margin : {1.0, 2.0}) {
    auto topo = scatter(60, 220.0, -50.0, 61);
    InterferenceColoring coloring(topo, margin);
    sim::Rng rng(13);
    std::vector<core::NodeId> movers;
    for (int round = 0; round < 6; ++round) {
      const std::uint64_t gen = topo.generation();
      for (int k = 0; k < 8; ++k) {
        const auto id = static_cast<core::NodeId>(rng.integer(60));
        const auto p = topo.position(id);
        topo.set_position(id, {p.x + rng.uniform(-25.0, 25.0),
                               p.y + rng.uniform(-25.0, 25.0)});
      }
      ASSERT_TRUE(topo.moved_since(gen, movers));
      coloring.update(movers);
      expect_proper(topo, coloring.coloring(), margin);
    }
  }
}

TEST(InterferenceRepair, MoveThatChangesNoEdgeExaminesNothing) {
  // Chain spacing 30 m, range 40 m: nudging node 5 one metre sideways
  // keeps every distance on the same side of R (40 m) and of margin·R
  // (80 m at margin 2), so no conflict can change.
  for (const double margin : {1.0, 2.0}) {
    auto topo = phy::Topology::linear(12, 30.0, 40.0);
    InterferenceColoring coloring(topo, margin);
    const Coloring before = coloring.coloring();
    topo.set_position(5, {150.0, 1.0});
    coloring.update({5});
    EXPECT_EQ(coloring.stats().repairs, 1u);
    EXPECT_EQ(coloring.stats().examined, 0u);
    EXPECT_EQ(coloring.coloring().color, before.color);

    // Pulling it 35 m off the line breaks its radio links: real work.
    topo.set_position(5, {150.0, 35.0});
    coloring.update({5});
    EXPECT_GT(coloring.stats().examined, 0u);
    EXPECT_TRUE(matches_scratch(topo, coloring.coloring(), margin));
  }
}

TEST(InterferenceRepair, StationaryMoversAreHarmless) {
  auto topo = scatter(60, 250.0, 0.0, 71);
  InterferenceColoring coloring(topo, 1.0);
  topo.set_position(3, topo.position(3));  // a move to where it stood
  const auto p = topo.position(9);
  topo.set_position(9, {p.x + 60.0, p.y - 45.0});
  coloring.update({3, 9, 17});  // 17 did not move at all
  EXPECT_TRUE(matches_scratch(topo, coloring.coloring(), 1.0));
  coloring.update({});
  EXPECT_TRUE(matches_scratch(topo, coloring.coloring(), 1.0));
}

TEST(ReuseSchedule, MoveRingOverflowFallsBackToAFullPass) {
  auto topo = scatter(60, 250.0, 0.0, 81);
  SlotSchedule sched(topo, 0.01, 7, 1.0);
  sim::Rng rng(9);
  const auto teleport_one = [&] {
    topo.set_position(static_cast<core::NodeId>(rng.integer(60)),
                      {rng.uniform(0.0, 250.0), rng.uniform(0.0, 250.0)});
  };
  for (std::size_t k = 0; k < topo.move_history_capacity() + 5; ++k)
    teleport_one();
  const auto check = [&] {
    const Coloring fresh = color_interference(topo, 1.0);
    for (core::NodeId i = 0; i < topo.size(); ++i)
      ASSERT_EQ(sched.color_of(i), fresh.color[i]) << "node " << i;
    EXPECT_EQ(sched.stats().colors_used, fresh.colors_used);
  };
  check();
  EXPECT_EQ(sched.coloring_stats().rebuilds, 2u);
  EXPECT_EQ(sched.coloring_stats().repairs, 0u);
  EXPECT_EQ(sched.stats().recolors, 2u);

  // Back inside the ring's window, recolors are repairs again.
  teleport_one();
  teleport_one();
  check();
  EXPECT_EQ(sched.coloring_stats().rebuilds, 2u);
  EXPECT_EQ(sched.coloring_stats().repairs, 1u);
  EXPECT_EQ(sched.stats().recolors, 3u);
}

TEST(ReuseSchedule, WaypointDrivenScheduleMatchesScratchAfterEveryEnsure) {
  sim::Simulator sim;
  auto topo = scatter(150, 300.0, 0.0, 91);
  phy::MobilityConfig cfg;
  cfg.speed_mps = 5.0;
  cfg.mean_pause_s = 5.0;
  cfg.field_m = 300.0;
  phy::RandomWaypoint rwp(sim, topo, cfg, sim::Rng(3));
  rwp.start();
  SlotSchedule narrow(topo, 0.01, 7, 1.0);
  SlotSchedule wide(topo, 0.01, 7, 2.0);
  for (double t = 0.3; t <= 60.0; t += 0.3) {
    sim.run_until(t);
    for (const auto* s : {&narrow, &wide}) {
      const Coloring fresh =
          color_interference(topo, s == &narrow ? 1.0 : 2.0);
      for (core::NodeId i = 0; i < topo.size(); ++i)
        ASSERT_EQ(s->color_of(i), fresh.color[i])
            << "node " << i << " at t=" << t;
      ASSERT_EQ(s->stats().colors_used, fresh.colors_used) << "t=" << t;
    }
  }
  EXPECT_EQ(narrow.coloring_stats().rebuilds, 1u);
  EXPECT_GT(narrow.coloring_stats().repairs, 100u);
  EXPECT_GT(narrow.coloring_stats().examined, 0u);
}

}  // namespace
}  // namespace jtp::mac
