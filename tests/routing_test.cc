#include "routing/link_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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
  // 1 and 3 both start a shortest path; the smaller id wins the tie.
  EXPECT_EQ(r.next_hop(0, 8), 1u);
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

// The reference: all-pairs routes of the live topology, computed without
// any of the router's machinery. Adjacency comes from an O(n²) in_range
// scan in ascending id (no grid, no flat lists), and each *source* gets a
// plain BFS that carries the first hop forward, while the router keys its
// rows by destination; agreeing on every pair proves the two keyings
// equivalent. A wrong offset, a dropped neighbor, a transposed plane index
// or a tie broken toward the wrong parent shows up as a mismatch here.
class Reference {
 public:
  explicit Reference(const phy::Topology& topo)
      : n_(topo.size()),
        dist_(n_ * n_, -1),
        next_(n_ * n_, core::kInvalidNode) {
    std::vector<std::vector<core::NodeId>> adj(n_);
    for (core::NodeId u = 0; u < n_; ++u)
      for (core::NodeId v = 0; v < n_; ++v)
        if (topo.in_range(u, v)) adj[u].push_back(v);
    for (core::NodeId s = 0; s < n_; ++s) {
      int* dist = &dist_[s * n_];
      core::NodeId* next = &next_[s * n_];
      std::vector<core::NodeId> queue{s};
      dist[s] = 0;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const core::NodeId u = queue[head];
        for (const core::NodeId v : adj[u]) {
          if (dist[v] >= 0) continue;
          dist[v] = dist[u] + 1;
          next[v] = u == s ? v : next[u];
          queue.push_back(v);
        }
      }
    }
  }

  std::optional<core::NodeId> next_hop(core::NodeId s, core::NodeId d) const {
    const core::NodeId h = next_[s * n_ + d];
    if (s == d || h == core::kInvalidNode) return std::nullopt;
    return h;
  }
  std::optional<int> hops(core::NodeId s, core::NodeId d) const {
    const int h = dist_[s * n_ + d];
    if (h < 0) return std::nullopt;
    return h;
  }
  // Hop by hop, each hop answering from its own row, as a router does.
  std::optional<std::vector<core::NodeId>> path(core::NodeId s,
                                                core::NodeId d) const {
    if (!hops(s, d)) return std::nullopt;
    std::vector<core::NodeId> p{s};
    while (p.back() != d) p.push_back(*next_hop(p.back(), d));
    return p;
  }

 private:
  std::size_t n_;
  std::vector<int> dist_;
  std::vector<core::NodeId> next_;
};

// The router must agree with the reference on next_hop/hops/path for
// every pair, no matter which rows its past interleavings already
// materialized.
void expect_matches_reference(const LinkStateRouting& r,
                              const phy::Topology& topo, const char* context) {
  const Reference ref(topo);
  const auto n = topo.size();
  for (core::NodeId s = 0; s < n; ++s) {
    for (core::NodeId d = 0; d < n; ++d) {
      EXPECT_EQ(r.next_hop(s, d), ref.next_hop(s, d))
          << context << ": next_hop(" << s << "," << d << ")";
      EXPECT_EQ(r.hops(s, d), ref.hops(s, d))
          << context << ": hops(" << s << "," << d << ")";
      EXPECT_EQ(r.path(s, d), ref.path(s, d))
          << context << ": path(" << s << "," << d << ")";
    }
  }
}

TEST(LinkStateRouting, LazyRowsMatchFullRecomputeAcrossChurn) {
  sim::Rng rng(11);
  sim::Simulator sim;
  auto topo = random_field(30, 180.0, rng);
  LinkStateRouting r(sim, topo);
  expect_matches_reference(r, topo, "initial");
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
    expect_matches_reference(r, topo, "after refresh");
  }
}

TEST(LinkStateRouting, RowsBuildOnlyForQueriedDestinations) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(50, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  EXPECT_EQ(r.stats().rows_built, 0u);  // construction computes nothing
  // Two relays toward one destination share its row ...
  (void)r.next_hop(0, 49);
  (void)r.hops(20, 49);
  EXPECT_EQ(r.stats().rows_built, 1u);
  EXPECT_EQ(r.stats().row_reuses, 1u);
  // ... and one source toward two more destinations pays two rows.
  (void)r.next_hop(0, 3);
  (void)r.next_hop(0, 30);
  EXPECT_EQ(r.stats().rows_built, 3u);
  // Refresh on an unchanged topology must keep every row.
  r.refresh();
  r.refresh();
  (void)r.next_hop(0, 49);
  (void)r.next_hop(0, 3);
  (void)r.next_hop(0, 30);
  EXPECT_EQ(r.stats().rows_built, 3u);
  EXPECT_EQ(r.stats().snapshots, 1u);
  // A position write that crosses no range boundary still moves the
  // topology generation: the view re-snapshots and every row goes stale,
  // so each queried row rebuilds exactly once.
  topo.set_position(10, {10.0 * 30.0, 1.0});
  r.refresh();
  EXPECT_EQ(r.stats().snapshots, 2u);
  for (int pass = 0; pass < 2; ++pass) {
    (void)r.next_hop(0, 49);
    (void)r.hops(20, 49);
    (void)r.next_hop(0, 3);
    (void)r.next_hop(7, 3);
  }
  EXPECT_EQ(r.stats().rows_built, 5u);
  // Rebuilt rows answer from the new view.
  topo.set_position(45, {45.0 * 30.0, 500.0});
  r.refresh();
  EXPECT_FALSE(r.next_hop(0, 49).has_value());
  EXPECT_EQ(r.next_hop(7, 3), 6u);
  EXPECT_EQ(r.stats().rows_built, 7u);
}

// Every relay on a path asks for the same destination: one BFS rooted
// there answers all of them.
TEST(LinkStateRouting, RelaysTowardOneDestinationShareOneRow) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(50, 30.0, 40.0);
  LinkStateRouting r(sim, topo);
  for (core::NodeId k = 0; k < 49; ++k) {
    EXPECT_EQ(r.next_hop(k, 49), k + 1);
    EXPECT_EQ(r.hops(k, 49), static_cast<int>(49 - k));
  }
  EXPECT_EQ(r.stats().rows_built, 1u);
  EXPECT_EQ(r.stats().row_reuses, 97u);
}

// Lattices tie shortest paths everywhere: at range 40 a lattice node has
// 4 neighbors, at 45 the diagonals join, at 61 the straight two-steps,
// at 70 the knight moves. Every tie must go to the smallest-id next hop,
// also when ids are shuffled over the lattice.
TEST(LinkStateRouting, TieHeavyLatticesMatchReference) {
  sim::Simulator sim;
  for (const double range : {40.0, 45.0, 61.0, 70.0}) {
    phy::Topology topo(64, range);
    for (core::NodeId i = 0; i < 64; ++i)
      topo.set_position(i, {30.0 * (i % 8), 30.0 * (i / 8)});
    LinkStateRouting r(sim, topo);
    const std::string context = "8x8 lattice, range " + std::to_string(range);
    expect_matches_reference(r, topo, context.c_str());
  }
  sim::Rng rng(3);
  std::vector<core::NodeId> id_at(49);
  for (core::NodeId i = 0; i < 49; ++i) id_at[i] = i;
  for (std::size_t i = id_at.size() - 1; i > 0; --i)
    std::swap(id_at[i], id_at[rng.integer(i + 1)]);
  phy::Topology topo(49, 45.0);
  for (core::NodeId i = 0; i < 49; ++i)
    topo.set_position(id_at[i], {30.0 * (i % 7), 30.0 * (i / 7)});
  LinkStateRouting r(sim, topo);
  expect_matches_reference(r, topo, "7x7 lattice, shuffled ids");
}

// The equivalence oracle under mixed churn: random interleavings of small
// moves (wiggles that rarely change adjacency), range-crossing moves,
// teleports, mass churn, queries against stale views, and refreshes —
// after every refresh the rows must agree with the brute-force reference
// on every pair.
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
    expect_matches_reference(r, topo, "after refresh");
  }
}

// Negative coordinates put nodes in grid cells on both sides of the
// origin, and a far-away node has an empty adjacency list; both must come
// out of the view exactly as the brute-force scan sees them, before and
// after the isolated node rejoins.
TEST(LinkStateRouting, NegativeCoordinatesAndAnIsolatedNodeMatchReference) {
  sim::Rng rng(5);
  sim::Simulator sim;
  const std::size_t n = 30;
  phy::Topology topo(n, 40.0);
  for (core::NodeId i = 0; i + 1 < n; ++i)
    topo.set_position(i,
                      {rng.uniform(-120.0, 40.0), rng.uniform(-120.0, 40.0)});
  const core::NodeId loner = n - 1;
  topo.set_position(loner, {-5000.0, -5000.0});
  LinkStateRouting r(sim, topo);
  ASSERT_FALSE(Reference(topo).hops(0, loner).has_value());
  expect_matches_reference(r, topo, "isolated");
  const phy::Position beside{topo.position(1).x + 1.0, topo.position(1).y};
  topo.set_position(loner, beside);
  topo.set_position(0, {-5000.0, -5000.0});
  r.refresh();
  ASSERT_FALSE(Reference(topo).hops(1, 0).has_value());
  expect_matches_reference(r, topo, "swapped");
}

// Rows are lazy but the view is not: a row first built after a live move
// answers from the snapshot the last refresh took, and only the next
// refresh exposes the move.
TEST(LinkStateRouting, RowFirstBuiltAfterALiveMoveAnswersFromTheSnapshot) {
  sim::Simulator sim;
  auto topo = phy::Topology::linear(5, 30.0, 40.0);
  const phy::Position in_chain = topo.position(2);
  topo.set_position(2, {1000.0, 0.0});  // constructed on a broken chain
  LinkStateRouting r(sim, topo);
  topo.set_position(2, in_chain);
  r.refresh();  // the snapshot now holds the intact chain
  ASSERT_EQ(r.stats().snapshots, 2u);
  topo.set_position(2, {1000.0, 0.0});  // break it again, live only
  EXPECT_EQ(r.path(1, 4), (std::vector<core::NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(r.hops(1, 4), 3);
  EXPECT_EQ(r.next_hop(1, 4), 2u);
  EXPECT_EQ(r.stats().snapshots, 2u);
  r.refresh();
  EXPECT_EQ(r.stats().snapshots, 3u);
  EXPECT_FALSE(r.path(1, 4).has_value());
  EXPECT_FALSE(r.hops(1, 4).has_value());
  EXPECT_FALSE(r.next_hop(1, 4).has_value());
}

}  // namespace
}  // namespace jtp::routing
