#include "phy/topology.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/random.h"

namespace jtp::phy {
namespace {

TEST(Topology, LinearChainIsConnectedAndMultiHop) {
  const auto t = Topology::linear(5, 30.0, 40.0);
  EXPECT_TRUE(t.connected());
  // Neighbors only: no hop-skipping.
  EXPECT_TRUE(t.in_range(0, 1));
  EXPECT_FALSE(t.in_range(0, 2));
  EXPECT_EQ(t.neighbors(2), (std::vector<core::NodeId>{1, 3}));
  EXPECT_EQ(t.neighbors(0), (std::vector<core::NodeId>{1}));
}

TEST(Topology, LinearRejectsDegenerateSpacing) {
  EXPECT_THROW(Topology::linear(5, 45.0, 40.0), std::invalid_argument);
  // range >= 2*spacing would let the chain skip hops
  EXPECT_THROW(Topology::linear(5, 15.0, 40.0), std::invalid_argument);
}

TEST(Topology, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Topology, InRangeIsSymmetricAndIrreflexive) {
  const auto t = Topology::linear(4, 30.0, 40.0);
  for (core::NodeId a = 0; a < 4; ++a) {
    EXPECT_FALSE(t.in_range(a, a));
    for (core::NodeId b = 0; b < 4; ++b)
      EXPECT_EQ(t.in_range(a, b), t.in_range(b, a));
  }
}

TEST(Topology, RandomConnectedIsConnected) {
  sim::Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const auto t = Topology::random_connected(15, 150.0, 40.0, rng);
    EXPECT_TRUE(t.connected());
    EXPECT_EQ(t.size(), 15u);
  }
}

// Reference placement loop: a Topology per attempt, filed by set_position,
// accepted when a brute-force BFS over in_range reaches every node.
// random_connected must accept exactly the attempt this accepts.
bool brute_force_connected(const Topology& t) {
  std::vector<bool> seen(t.size(), false);
  std::vector<core::NodeId> queue{0};
  seen[0] = true;
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (core::NodeId v = 0; v < t.size(); ++v)
      if (!seen[v] && t.in_range(queue[head], v)) {
        seen[v] = true;
        queue.push_back(v);
      }
  return queue.size() == t.size();
}

Topology reference_random_connected(std::size_t n, double field_m,
                                    double range_m, sim::Rng& rng,
                                    int max_tries) {
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    Topology t(n, range_m);
    for (std::size_t i = 0; i < n; ++i)
      t.set_position(i, {rng.uniform(0.0, field_m), rng.uniform(0.0, field_m)});
    if (brute_force_connected(t)) return t;
  }
  throw std::runtime_error("reference: no connected placement");
}

TEST(Topology, RandomConnectedMatchesPerAttemptReference) {
  // Fields sized like the scenario tier's (exp::random_field_side_m: 5 to
  // ~8.7 nodes per range disk), where most attempts are rejected: these 15
  // cases take 46 attempts in all, 1 to 6 each.
  for (const std::size_t n : {2u, 15u, 60u, 400u, 1000u}) {
    const double per_disk = std::max(5.0, std::log(n / 25.0) + 5.0);
    const double field =
        std::sqrt(n * 3.14159265358979 * 40.0 * 40.0 / per_disk);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      sim::Rng fast_rng(seed), ref_rng(seed);
      const auto t = Topology::random_connected(n, field, 40.0, fast_rng);
      const auto ref = reference_random_connected(n, field, 40.0, ref_rng, 200);
      ASSERT_EQ(t.size(), n);
      for (core::NodeId i = 0; i < n; ++i) {
        EXPECT_EQ(t.position(i).x, ref.position(i).x) << n << "/" << i;
        EXPECT_EQ(t.position(i).y, ref.position(i).y) << n << "/" << i;
      }
      EXPECT_EQ(t.generation(), ref.generation());
      std::vector<core::NodeId> moved, ref_moved;
      EXPECT_TRUE(t.moved_since(0, moved));
      EXPECT_TRUE(ref.moved_since(0, ref_moved));
      EXPECT_EQ(moved, ref_moved);
      // Both consumed the same draws: the streams stay in step.
      EXPECT_EQ(fast_rng.uniform(), ref_rng.uniform()) << n << "/" << seed;
      EXPECT_TRUE(t.connected());
    }
  }
  // An impossible field: both give up after the same number of attempts.
  sim::Rng fast_rng(5), ref_rng(5);
  EXPECT_THROW(Topology::random_connected(10, 100000.0, 40.0, fast_rng, 5),
               std::runtime_error);
  EXPECT_THROW(reference_random_connected(10, 100000.0, 40.0, ref_rng, 5),
               std::runtime_error);
  EXPECT_EQ(fast_rng.uniform(), ref_rng.uniform());
}

TEST(Topology, RandomConnectedImpossibleFieldThrows) {
  sim::Rng rng(5);
  // Nodes cannot stay connected w.h.p. in an enormous sparse field.
  EXPECT_THROW(Topology::random_connected(10, 100000.0, 40.0, rng, 5),
               std::runtime_error);
}

TEST(Topology, MovingNodeChangesConnectivity) {
  auto t = Topology::linear(3, 30.0, 40.0);
  EXPECT_TRUE(t.in_range(0, 1));
  t.set_position(1, {500.0, 0.0});
  EXPECT_FALSE(t.in_range(0, 1));
  EXPECT_FALSE(t.connected());
}

TEST(Topology, RejectsBadConstruction) {
  EXPECT_THROW(Topology(0, 10.0), std::invalid_argument);
  EXPECT_THROW(Topology(3, 0.0), std::invalid_argument);
}

TEST(Topology, GenerationBumpsOnEverySetPosition) {
  auto t = Topology::linear(3, 30.0, 40.0);
  const auto g0 = t.generation();
  t.set_position(1, {31.0, 0.0});
  EXPECT_EQ(t.generation(), g0 + 1);
  // Same position again still counts: generation tracks writes, and
  // in-range state depends on exact coordinates, not grid cells.
  t.set_position(1, {31.0, 0.0});
  EXPECT_EQ(t.generation(), g0 + 2);
}

// --- grid-index properties -------------------------------------------------
// The spatial index must be invisible: neighbors() has to agree with the
// O(n^2) definition (all in_range ids, ascending) on any placement,
// including after mobility-style churn and on negative coordinates.

std::vector<core::NodeId> brute_force_neighbors(const Topology& t,
                                                core::NodeId id) {
  std::vector<core::NodeId> out;
  for (core::NodeId j = 0; j < t.size(); ++j)
    if (t.in_range(id, j)) out.push_back(j);
  return out;
}

// Every other node within `radius` of `id`, ascending, by a full scan.
std::vector<core::NodeId> brute_force_within(const Topology& t,
                                             core::NodeId id, double radius) {
  std::vector<core::NodeId> out;
  for (core::NodeId j = 0; j < t.size(); ++j)
    if (j != id && distance(t.position(id), t.position(j)) <= radius)
      out.push_back(j);
  return out;
}

void expect_index_matches_brute_force(const Topology& t,
                                      const char* context) {
  std::vector<core::NodeId> scratch;
  std::vector<core::NodeId> within;
  for (core::NodeId i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.neighbors(i), brute_force_neighbors(t, i))
        << context << ": node " << i;
    t.neighbors_into(i, scratch);
    EXPECT_EQ(scratch, brute_force_neighbors(t, i))
        << context << " (into): node " << i;
    // Wider radii scan wider cell blocks (5x5 at 1.5R and 2R, 9x9 at 4R).
    for (const double k : {1.0, 1.5, 2.0, 4.0}) {
      t.within_into(i, k * t.radio_range(), within);
      EXPECT_EQ(within, brute_force_within(t, i, k * t.radio_range()))
          << context << " (within " << k << "R): node " << i;
    }
    t.within_into(i, t.radio_range(), within);
    EXPECT_EQ(scratch, within) << context << " (within R): node " << i;
  }
}

TEST(TopologyGridIndex, NeighborsMatchBruteForceOnRandomFields) {
  sim::Rng rng(42);
  for (const std::size_t n : {2u, 7u, 40u, 150u}) {
    const double side = 40.0 * std::sqrt(static_cast<double>(n));
    // A field in the first quadrant, and one straddling the origin.
    for (const double origin : {0.0, -side / 2}) {
      Topology t(n, 40.0);
      for (core::NodeId i = 0; i < n; ++i)
        t.set_position(i, {origin + rng.uniform(0.0, side),
                           origin + rng.uniform(0.0, side)});
      expect_index_matches_brute_force(t, "fresh placement");
    }
  }
  // A field straddling the origin at +-5000 m: 12 clusters of 20 nodes.
  // The box is ~60x wider than the clusters, so the grid coarsens its
  // cell side to keep the cell count O(n).
  std::vector<Position> centers(12);
  for (Position& c : centers)
    c = {rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0)};
  Topology wide(240, 40.0);
  for (core::NodeId i = 0; i < 240; ++i) {
    const Position& c = centers[i % centers.size()];
    wide.set_position(i, {c.x + rng.uniform(-100.0, 100.0),
                          c.y + rng.uniform(-100.0, 100.0)});
  }
  expect_index_matches_brute_force(wide, "+-5000 m clusters");
  // One node at 1e6 m: the box grows to reach it and coarsens until the
  // whole dense field shares one cell; answers stay exact, also after the
  // node comes back and the others move.
  Topology far(60, 40.0);
  for (core::NodeId i = 0; i < 60; ++i)
    far.set_position(i, {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  far.set_position(7, {1e6, 1e6});
  expect_index_matches_brute_force(far, "one node at 1e6 m");
  far.set_position(7, {150.0, 150.0});
  for (int round = 0; round < 100; ++round)
    far.set_position(static_cast<core::NodeId>(rng.integer(60)),
                     {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  expect_index_matches_brute_force(far, "after the far node returned");
}

TEST(TopologyGridIndex, NeighborsMatchBruteForceAfterChurn) {
  sim::Rng rng(7);
  const std::size_t n = 60;
  Topology t(n, 40.0);
  for (core::NodeId i = 0; i < n; ++i)
    t.set_position(i, {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  // Mobility-style churn: small steps, long jumps, and excursions to
  // negative coordinates (cells left, emptied, re-entered).
  for (int round = 0; round < 200; ++round) {
    const auto id = static_cast<core::NodeId>(rng.integer(n));
    const auto& p = t.position(id);
    if (round % 5 == 0) {
      t.set_position(id, {rng.uniform(-120.0, 420.0),
                          rng.uniform(-120.0, 420.0)});
    } else {
      t.set_position(id, {p.x + rng.uniform(-10.0, 10.0),
                          p.y + rng.uniform(-10.0, 10.0)});
    }
  }
  expect_index_matches_brute_force(t, "after churn");
}

TEST(TopologyMovedSince, ReportsDistinctMoversAscending) {
  Topology t(10, 40.0);
  const std::uint64_t gen = t.generation();
  t.set_position(5, {10.0, 0.0});
  t.set_position(2, {20.0, 0.0});
  t.set_position(5, {30.0, 0.0});  // repeat mover: reported once
  std::vector<core::NodeId> moved;
  ASSERT_TRUE(t.moved_since(gen, moved));
  EXPECT_EQ(moved, (std::vector<core::NodeId>{2, 5}));
}

TEST(TopologyMovedSince, CurrentGenerationYieldsEmptySet) {
  Topology t(4, 40.0);
  t.set_position(1, {5.0, 5.0});
  std::vector<core::NodeId> moved{99};
  ASSERT_TRUE(t.moved_since(t.generation(), moved));
  EXPECT_TRUE(moved.empty());
}

TEST(TopologyMovedSince, FutureGenerationIsUnanswerable) {
  Topology t(4, 40.0);
  std::vector<core::NodeId> moved;
  EXPECT_FALSE(t.moved_since(t.generation() + 1, moved));
}

TEST(TopologyMovedSince, OverflowReturnsFalseAtExactBoundary) {
  Topology t(4, 40.0);
  const std::size_t cap = t.move_history_capacity();
  const std::uint64_t gen = t.generation();
  std::vector<core::NodeId> moved;
  // Fill the ring exactly: still answerable.
  for (std::size_t i = 0; i < cap; ++i)
    t.set_position(static_cast<core::NodeId>(i % 4),
                   {static_cast<double>(i), 0.0});
  ASSERT_TRUE(t.moved_since(gen, moved));
  EXPECT_EQ(moved.size(), 4u);
  // One more move pushes the window past the ring: unanswerable.
  t.set_position(0, {1.0, 1.0});
  EXPECT_FALSE(t.moved_since(gen, moved));
  // A narrower window inside the ring still works.
  ASSERT_TRUE(t.moved_since(t.generation() - 1, moved));
  EXPECT_EQ(moved, (std::vector<core::NodeId>{0}));
}

TEST(TopologyMovedSince, CopyCarriesItsOwnHistory) {
  Topology t(4, 40.0);
  t.set_position(3, {10.0, 0.0});
  const Topology copy = t;
  const std::uint64_t gen = copy.generation();
  t.set_position(1, {20.0, 0.0});  // original moves on; copy is frozen
  std::vector<core::NodeId> moved;
  ASSERT_TRUE(copy.moved_since(gen, moved));
  EXPECT_TRUE(moved.empty());
  std::vector<core::NodeId> orig_moved;
  ASSERT_TRUE(t.moved_since(gen, orig_moved));
  EXPECT_EQ(orig_moved, (std::vector<core::NodeId>{1}));
}

TEST(TopologyGridIndex, RangeBoundaryIsInclusiveAcrossCells) {
  // Two nodes exactly one range apart land in different cells; the index
  // must keep the <= boundary the scan had.
  Topology t(2, 40.0);
  t.set_position(0, {0.0, 0.0});
  t.set_position(1, {40.0, 0.0});
  EXPECT_TRUE(t.in_range(0, 1));
  EXPECT_EQ(t.neighbors(0), (std::vector<core::NodeId>{1}));
  t.set_position(1, {40.0000001, 0.0});
  EXPECT_TRUE(t.neighbors(0).empty());
}

}  // namespace
}  // namespace jtp::phy
