// Link-state routing with possibly-stale topology views (paper §2, [29]).
//
// JAVeLEN runs an energy-conserving link-state protocol that gives every
// node a local, *possibly inaccurate*, view of the topology. JTP consumes
// exactly three things from it: the next hop toward a destination, an
// estimate of the remaining path length H_i (used by the reliability math,
// eq. 4), and route symmetry (ACKs retrace the data path, which is what
// lets caches observe them).
//
// We model the protocol's outcome rather than its packet exchange: the
// service snapshots the real connectivity graph every `refresh_interval_s`
// and answers all queries from the latest snapshot. Between refreshes the
// view goes stale exactly the way a periodic link-state flood would. The
// flood's own traffic is excluded from energy accounting, consistent with
// the paper's metric ("we will not consider the energy consumed for
// network maintenance by the lower layers").
//
// Scale model: a refresh that sees a new topology generation snapshots
// the range graph as flat adjacency lists — one grid neighbor query per
// node, O(n + edges) — not an all-pairs recompute. Shortest-path rows are
// flat, contiguous and per-source, built lazily the first time a source is
// queried against the current snapshot by a BFS over those lists, and kept
// until the snapshot actually changes (tracked by the topology's
// generation counter). A static 1000-node field therefore pays BFS only
// for sources that carry flows, and pays it once — refreshes and oracle
// queries on an unchanged topology are no-ops. RoutingStats is the
// observable contract for that claim, mirroring sim::PoolStats for the
// data-plane pools. Any change of topology generation re-snapshots the
// view and invalidates every row at once (an epoch bump); the rows the
// queries still need are rebuilt lazily, one BFS each.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.h"
#include "phy/topology.h"
#include "sim/simulator.h"

namespace jtp::routing {

struct RoutingConfig {
  double refresh_interval_s = 5.0;  // staleness bound of the view
  bool oracle = false;              // true => view synced before every query
};

// Control-plane work accounting. In steady state on a static topology,
// `snapshots` and `rows_built` stop moving while `row_reuses` keeps
// counting — a growing `rows_built` under an unchanged topology means
// some path recomputes needlessly (the pre-PR5 oracle bug).
struct RoutingStats {
  std::uint64_t refreshes = 0;     // view syncs (periodic + forced + ctor)
  std::uint64_t snapshots = 0;     // syncs that saw a new topology generation
  std::uint64_t rows_built = 0;    // per-source BFS row computations
  std::uint64_t row_reuses = 0;    // queries served from an existing row
  std::uint64_t oracle_skips = 0;  // oracle syncs skipped: generation
                                   // unchanged since the current snapshot
};

class LinkStateRouting {
 public:
  LinkStateRouting(sim::Simulator& sim, const phy::Topology& topo,
                   RoutingConfig cfg = {});

  // Starts periodic snapshot refreshes.
  void start();

  // Syncs the view to the live topology (tests, oracle mode, mobility
  // hooks). Cheap when the topology generation has not changed.
  void refresh();

  // Next hop from `at` toward `dst` per `at`'s current view.
  // nullopt if the view has no path.
  std::optional<core::NodeId> next_hop(core::NodeId at,
                                       core::NodeId dst) const;

  // Estimated remaining hops from `at` to `dst` (>= 1 when reachable).
  std::optional<int> hops(core::NodeId at, core::NodeId dst) const;

  // Full path per the current view (for tests and traces).
  std::optional<std::vector<core::NodeId>> path(core::NodeId src,
                                                core::NodeId dst) const;

  const RoutingStats& stats() const { return stats_; }
  std::uint64_t refreshes() const { return stats_.refreshes; }
  const RoutingConfig& config() const { return cfg_; }

 private:
  void maybe_oracle_refresh() const;
  // Rebuilds the adjacency lists from the live topology and records its
  // generation.
  void snapshot() const;
  // Re-snapshots the view and bumps the epoch when the topology
  // generation moved; a no-op otherwise.
  void sync_view() const;
  // Builds the dist/next row for source `s` against the snapshot if it is
  // not already valid for the current view epoch.
  void ensure_row(core::NodeId s) const;

  sim::Simulator& sim_;
  const phy::Topology& topo_;
  RoutingConfig cfg_;

  // The view: the range graph as of the last refresh that observed a
  // change, as flat adjacency lists (CSR): the neighbors of u are
  // adj_[adj_off_[u] .. adj_off_[u + 1]), in the ascending order
  // Topology::neighbors_into returns, which the BFS tie-breaks (and so
  // every route) depend on. The lists are built when the view syncs, never
  // at first query: queries never touch the live topology, so lazy row
  // builds see exactly what an eager refresh-time recompute would have
  // seen.
  mutable std::vector<std::size_t> adj_off_;  // n + 1 offsets into adj_
  mutable std::vector<core::NodeId> adj_;
  mutable std::uint64_t snapshot_gen_ = 0;

  // Flat n*n rows: dist_[s*n + d] = hop count, next_[s*n + d] = first hop
  // on a shortest path. A row is valid iff row_epoch_[s] == epoch_.
  mutable std::vector<int> dist_;
  mutable std::vector<core::NodeId> next_;
  mutable std::vector<std::uint64_t> row_epoch_;
  mutable std::uint64_t epoch_ = 1;

  // BFS scratch (reused across builds; no steady-state allocation).
  mutable std::vector<core::NodeId> bfs_queue_;

  mutable RoutingStats stats_;
  bool started_ = false;
};

}  // namespace jtp::routing
