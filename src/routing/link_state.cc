#include "routing/link_state.h"

#include <limits>
#include <stdexcept>

namespace jtp::routing {

namespace {
constexpr int kUnreachable = std::numeric_limits<int>::max();
}

LinkStateRouting::LinkStateRouting(sim::Simulator& sim,
                                   const phy::Topology& topo,
                                   RoutingConfig cfg)
    : sim_(sim), topo_(topo), cfg_(cfg) {
  if (cfg.refresh_interval_s <= 0)
    throw std::invalid_argument("LinkStateRouting: bad refresh interval");
  snapshot();
  const std::size_t n = topo_.size();
  dist_.reset(new int[n * n]);
  next_.reset(new core::NodeId[n * n]);
  row_epoch_.assign(n, 0);  // epoch_ starts at 1: no row is valid yet
  stats_.refreshes = 1;     // construction takes the first view
  stats_.snapshots = 1;
}

void LinkStateRouting::start() {
  if (started_) return;
  started_ = true;
  struct Rearm {
    LinkStateRouting* self;
    double period;
    void operator()() const {
      self->refresh();
      self->sim_.schedule(period, Rearm{self, period});
    }
  };
  sim_.schedule(cfg_.refresh_interval_s, Rearm{this, cfg_.refresh_interval_s});
}

void LinkStateRouting::refresh() {
  ++stats_.refreshes;
  sync_view();
}

void LinkStateRouting::snapshot() const {
  std::vector<core::NodeId> nbrs;
  adj_.clear();
  adj_off_.assign(1, 0);
  for (core::NodeId u = 0; u < topo_.size(); ++u) {
    topo_.neighbors_into(u, nbrs);
    adj_.insert(adj_.end(), nbrs.begin(), nbrs.end());
    adj_off_.push_back(adj_.size());
  }
  snapshot_gen_ = topo_.generation();
}

void LinkStateRouting::sync_view() const {
  if (topo_.generation() == snapshot_gen_) return;  // view already current
  ++stats_.snapshots;
  snapshot();
  ++epoch_;  // invalidates every row without touching them
}

void LinkStateRouting::ensure_row(core::NodeId d) const {
  if (row_epoch_[d] == epoch_) {
    ++stats_.row_reuses;
    return;
  }
  const std::size_t n = topo_.size();
  int* dist = dist_.get() + static_cast<std::size_t>(d) * n;
  core::NodeId* next = next_.get() + static_cast<std::size_t>(d) * n;
  for (std::size_t v = 0; v < n; ++v) {
    dist[v] = kUnreachable;
    next[v] = core::kInvalidNode;
  }
  // BFS from d over the snapshot's unit-cost range graph. Every neighbor u
  // of v one level closer to d is a next hop on some shortest path; v
  // keeps the smallest id. That is what a per-source BFS over ascending
  // lists answers too: its first-hop labels never decrease along a queue
  // level, so each node inherits the smallest first hop over all of its
  // shortest paths, and the range graph is symmetric.
  dist[d] = 0;
  bfs_queue_.clear();
  bfs_queue_.push_back(d);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const core::NodeId u = bfs_queue_[head];
    const int level = dist[u] + 1;
    for (std::size_t k = adj_off_[u]; k < adj_off_[u + 1]; ++k) {
      const core::NodeId v = adj_[k];
      if (dist[v] == kUnreachable) {
        dist[v] = level;
        next[v] = u;
        bfs_queue_.push_back(v);
      } else {
        // A select, not a branch: whether u is a second parent of v
        // turns on data, and as a branch it mispredicts often enough to
        // make the row ~40% dearer.
        const core::NodeId kept = next[v];
        next[v] = (dist[v] == level) & (u < kept) ? u : kept;
      }
    }
  }
  row_epoch_[d] = epoch_;
  ++stats_.rows_built;
}

std::optional<core::NodeId> LinkStateRouting::next_hop(core::NodeId at,
                                                       core::NodeId dst) const {
  const std::size_t n = topo_.size();
  if (at >= n || dst >= n) return std::nullopt;
  if (at == dst) return std::nullopt;
  ensure_row(dst);
  const core::NodeId h = next_[static_cast<std::size_t>(dst) * n + at];
  if (h == core::kInvalidNode) return std::nullopt;
  return h;
}

std::optional<int> LinkStateRouting::hops(core::NodeId at,
                                          core::NodeId dst) const {
  const std::size_t n = topo_.size();
  if (at >= n || dst >= n) return std::nullopt;
  ensure_row(dst);
  const int d = dist_[static_cast<std::size_t>(dst) * n + at];
  if (d == kUnreachable) return std::nullopt;
  return d;
}

std::optional<std::vector<core::NodeId>> LinkStateRouting::path(
    core::NodeId src, core::NodeId dst) const {
  const std::size_t n = topo_.size();
  if (src >= n || dst >= n) return std::nullopt;
  ensure_row(dst);
  const core::NodeId* next = next_.get() + static_cast<std::size_t>(dst) * n;
  std::vector<core::NodeId> p{src};
  // Each hop is one level closer to dst, so the walk ends.
  while (p.back() != dst) {
    const core::NodeId h = next[p.back()];
    if (h == core::kInvalidNode) return std::nullopt;
    p.push_back(h);
  }
  return p;
}

}  // namespace jtp::routing
