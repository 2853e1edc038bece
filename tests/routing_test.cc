#include "routing/link_state.h"

#include <gtest/gtest.h>

#include "phy/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace jtp::routing {
namespace {

TEST(LinkStateRouting, LinearChainNextHops) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(5, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  EXPECT_EQ(r.next_hop(0, 4), 1u);
  EXPECT_EQ(r.next_hop(1, 4), 2u);
  EXPECT_EQ(r.next_hop(4, 0), 3u);
  EXPECT_EQ(r.hops(0, 4), 4);
  EXPECT_EQ(r.hops(2, 4), 2);
  EXPECT_EQ(r.hops(3, 3), 0);
}

TEST(LinkStateRouting, PathIsHopByHopConsistent) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(6, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  const auto p = r.path(0, 5);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (std::vector<core::NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(LinkStateRouting, SymmetricRoutesOnChain) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(7, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  auto fwd = r.path(0, 6);
  auto rev = r.path(6, 0);
  ASSERT_TRUE(fwd && rev);
  std::reverse(rev->begin(), rev->end());
  EXPECT_EQ(*fwd, *rev);
}

TEST(LinkStateRouting, UnreachableReturnsNullopt) {
  sim::Simulator sim;
  phy::Topology topo(3, 40.0);
  topo.set_position(0, {0, 0});
  topo.set_position(1, {30, 0});
  topo.set_position(2, {500, 0});  // isolated
  LinkStateRouting r(sim, topo);
  EXPECT_FALSE(r.next_hop(0, 2).has_value());
  EXPECT_FALSE(r.hops(0, 2).has_value());
  EXPECT_FALSE(r.path(0, 2).has_value());
}

TEST(LinkStateRouting, StaleViewUntilRefresh) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  RoutingConfig cfg;
  cfg.refresh_interval_s = 10.0;
  LinkStateRouting r(sim, topo, cfg);
  r.start();
  EXPECT_EQ(r.hops(0, 2), 2);
  // Break the chain; the view must not notice until the next refresh.
  topo.set_position(1, {1000, 0});
  EXPECT_EQ(r.hops(0, 2), 2);  // stale
  sim.run_until(10.5);         // refresh fired
  EXPECT_FALSE(r.hops(0, 2).has_value());
}

TEST(LinkStateRouting, OracleModeSeesChangesImmediately) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  RoutingConfig cfg;
  cfg.oracle = true;
  LinkStateRouting r(sim, topo, cfg);
  topo.set_position(1, {1000, 0});
  EXPECT_FALSE(r.hops(0, 2).has_value());
}

TEST(LinkStateRouting, PeriodicRefreshKeepsRunning) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  RoutingConfig cfg;
  cfg.refresh_interval_s = 1.0;
  LinkStateRouting r(sim, topo, cfg);
  r.start();
  sim.run_until(10.5);
  EXPECT_GE(r.refreshes(), 10u);
}

TEST(LinkStateRouting, GridShortestPaths) {
  sim::Simulator sim;
  // 3x3 grid, spacing 30, range 40 (no diagonals: 42.4 > 40).
  phy::Topology topo(9, 40.0);
  for (core::NodeId i = 0; i < 9; ++i)
    topo.set_position(i, {30.0 * (i % 3), 30.0 * (i / 3)});
  LinkStateRouting r(sim, topo);
  EXPECT_EQ(r.hops(0, 8), 4);  // manhattan distance in hops
  EXPECT_EQ(r.hops(0, 2), 2);
  const auto next = r.next_hop(0, 8);
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(*next == 1 || *next == 3);
}

TEST(LinkStateRouting, NextHopToSelfIsNull) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  EXPECT_FALSE(r.next_hop(1, 1).has_value());
}

TEST(LinkStateRouting, RejectsBadRefresh) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(3, 30.0, 40.0);
  RoutingConfig cfg;
  cfg.refresh_interval_s = 0.0;
  EXPECT_THROW(LinkStateRouting(sim, topo, cfg), std::invalid_argument);
}

// --- lazy-row equivalence -------------------------------------------------

phy::Topology random_field(std::size_t n, double side, sim::Rng& rng) {
  phy::Topology t(n, 40.0);
  for (core::NodeId i = 0; i < n; ++i)
    t.set_position(i, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
  return t;
}

// The oracle: a freshly constructed router answers every query from an
// up-to-date view, with rows built in plain query order. The lazy router
// must agree on next_hop/hops/path for every pair, no matter which rows
// its past interleavings already materialized.
void expect_matches_fresh(const LinkStateRouting& r,
                          const phy::Topology& topo, const char* context) {
  sim::Simulator fresh_sim;
  LinkStateRouting fresh(fresh_sim, topo);
  const auto n = topo.size();
  for (core::NodeId s = 0; s < n; ++s) {
    for (core::NodeId d = 0; d < n; ++d) {
      EXPECT_EQ(r.next_hop(s, d), fresh.next_hop(s, d))
          << context << ": next_hop(" << s << "," << d << ")";
      EXPECT_EQ(r.hops(s, d), fresh.hops(s, d))
          << context << ": hops(" << s << "," << d << ")";
      EXPECT_EQ(r.path(s, d), fresh.path(s, d))
          << context << ": path(" << s << "," << d << ")";
    }
  }
}

TEST(LinkStateRouting, LazyRowsMatchFullRecomputeAcrossChurn) {
  sim::Rng rng(11);
  sim::Simulator sim;
  auto topo = random_field(30, 180.0, rng);
  LinkStateRouting r(sim, topo);
  expect_matches_fresh(r, topo, "initial");
  for (int round = 0; round < 20; ++round) {
    // Churn: move a few nodes, interleaved with queries that partially
    // materialize rows against the *stale* view (they must not leak into
    // the post-refresh answers).
    for (int m = 0; m < 3; ++m) {
      const auto id = static_cast<core::NodeId>(rng.integer(topo.size()));
      topo.set_position(id, {rng.uniform(0.0, 180.0),
                             rng.uniform(0.0, 180.0)});
      (void)r.next_hop(static_cast<core::NodeId>(rng.integer(topo.size())),
                       static_cast<core::NodeId>(rng.integer(topo.size())));
      (void)r.path(static_cast<core::NodeId>(rng.integer(topo.size())),
                   static_cast<core::NodeId>(rng.integer(topo.size())));
    }
    r.refresh();
    expect_matches_fresh(r, topo, "after refresh");
  }
}

TEST(LinkStateRouting, RowsBuildOnlyForQueriedSources) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(50, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  EXPECT_EQ(r.stats().rows_built, 0u);  // construction computes nothing
  (void)r.next_hop(0, 49);
  (void)r.hops(0, 49);
  EXPECT_EQ(r.stats().rows_built, 1u);
  EXPECT_EQ(r.stats().row_reuses, 1u);
  (void)r.next_hop(7, 3);
  EXPECT_EQ(r.stats().rows_built, 2u);
  // Refresh on an unchanged topology must keep every row.
  r.refresh();
  r.refresh();
  (void)r.next_hop(0, 49);
  (void)r.next_hop(7, 3);
  EXPECT_EQ(r.stats().rows_built, 2u);
  EXPECT_EQ(r.stats().snapshots, 1u);
  // A position write that crosses no range boundary still moves the
  // topology generation: the view re-snapshots and every row goes stale,
  // so each queried row rebuilds exactly once.
  topo.set_position(10, {10.0 * 30.0, 1.0});
  r.refresh();
  EXPECT_EQ(r.stats().snapshots, 2u);
  (void)r.next_hop(0, 49);
  (void)r.next_hop(7, 3);
  (void)r.next_hop(0, 49);
  (void)r.next_hop(7, 3);
  EXPECT_EQ(r.stats().rows_built, 4u);
  // Rebuilt rows answer from the new view.
  topo.set_position(45, {45.0 * 30.0, 500.0});
  r.refresh();
  EXPECT_FALSE(r.next_hop(0, 49).has_value());
  EXPECT_EQ(r.next_hop(7, 3), 6u);
  EXPECT_EQ(r.stats().rows_built, 6u);
}

// The equivalence oracle under mixed churn: random interleavings of small
// moves (wiggles that rarely change adjacency), range-crossing moves,
// teleports, mass churn, queries against stale views, and refreshes —
// after every refresh the rows must agree with a freshly built router on
// every pair.
TEST(LinkStateRouting, RowsMatchFreshAcrossInterleavings) {
  sim::Rng rng(23);
  sim::Simulator sim;
  const double side = 200.0;
  auto topo = random_field(40, side, rng);
  LinkStateRouting r(sim, topo);
  auto pick = [&] { return static_cast<core::NodeId>(rng.integer(40)); };
  for (int round = 0; round < 60; ++round) {
    const int kind = static_cast<int>(rng.integer(4));
    const int moves = kind == 3 ? 25 : 3;  // kind 3 = mass churn round
    for (int m = 0; m < moves; ++m) {
      const auto id = pick();
      const auto p = topo.position(id);
      switch (kind) {
        case 0:  // wiggle: usually no adjacency change
          topo.set_position(id, {p.x + rng.uniform(-2.0, 2.0),
                                 p.y + rng.uniform(-2.0, 2.0)});
          break;
        case 1:  // one-cell hop: adjacency changes at the boundary
          topo.set_position(
              id, {p.x + (rng.bernoulli(0.5) ? 40.0 : -40.0), p.y});
          break;
        default:  // teleport
          topo.set_position(
              id, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
          break;
      }
      // Queries against the stale view partially materialize rows that
      // the next sync must invalidate.
      (void)r.next_hop(pick(), pick());
      (void)r.hops(pick(), pick());
    }
    r.refresh();
    expect_matches_fresh(r, topo, "after refresh");
  }
}

TEST(LinkStateRouting, OracleUnchangedTopologyNeverRecomputes) {
  // The standing perf bug this PR retires: oracle mode used to do a full
  // all-pairs recompute on *every* query. Now an unchanged topology is a
  // counter bump.
  sim::Simulator sim;
  auto topo = phy::Topology::linear(10, 30.0, 40.0);
  RoutingConfig cfg;
  cfg.oracle = true;
  LinkStateRouting r(sim, topo, cfg);
  for (int i = 0; i < 100; ++i) (void)r.next_hop(0, 9);
  EXPECT_EQ(r.stats().snapshots, 1u);   // construction only
  EXPECT_EQ(r.stats().rows_built, 1u);  // one row, once
  EXPECT_EQ(r.stats().oracle_skips, 100u);
  // A real change still shows up immediately (oracle contract).
  topo.set_position(5, {1000.0, 0.0});
  EXPECT_FALSE(r.next_hop(0, 9).has_value());
  EXPECT_EQ(r.stats().snapshots, 2u);
}

}  // namespace
}  // namespace jtp::routing
