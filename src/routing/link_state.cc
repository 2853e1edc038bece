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

void LinkStateRouting::maybe_oracle_refresh() const {
  if (!cfg_.oracle) return;
  if (topo_.generation() == snapshot_gen_) {
    ++stats_.oracle_skips;  // unchanged topology: nothing to recompute
    return;
  }
  ++stats_.refreshes;
  sync_view();
}

void LinkStateRouting::ensure_row(core::NodeId s) const {
  if (row_epoch_[s] == epoch_) {
    ++stats_.row_reuses;
    return;
  }
  const std::size_t n = topo_.size();
  int* dist = dist_.get() + static_cast<std::size_t>(s) * n;
  core::NodeId* next = next_.get() + static_cast<std::size_t>(s) * n;
  for (std::size_t d = 0; d < n; ++d) {
    dist[d] = kUnreachable;
    next[d] = core::kInvalidNode;
  }
  // BFS over the snapshot's unit-cost range graph, carrying the first hop
  // forward: next[v] inherits next[u] (or v itself when u is the source),
  // which walks out to the same first hop the old parent-chain walk found.
  dist[s] = 0;
  bfs_queue_.clear();
  bfs_queue_.push_back(s);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const core::NodeId u = bfs_queue_[head];
    for (std::size_t k = adj_off_[u]; k < adj_off_[u + 1]; ++k) {
      const core::NodeId v = adj_[k];
      if (dist[v] != kUnreachable) continue;
      dist[v] = dist[u] + 1;
      next[v] = (u == s) ? v : next[u];
      bfs_queue_.push_back(v);
    }
  }
  row_epoch_[s] = epoch_;
  ++stats_.rows_built;
}

std::optional<core::NodeId> LinkStateRouting::next_hop(core::NodeId at,
                                                       core::NodeId dst) const {
  maybe_oracle_refresh();
  const std::size_t n = topo_.size();
  if (at >= n || dst >= n) return std::nullopt;
  if (at == dst) return std::nullopt;
  ensure_row(at);
  const core::NodeId h = next_[static_cast<std::size_t>(at) * n + dst];
  if (h == core::kInvalidNode) return std::nullopt;
  return h;
}

std::optional<int> LinkStateRouting::hops(core::NodeId at,
                                          core::NodeId dst) const {
  maybe_oracle_refresh();
  const std::size_t n = topo_.size();
  if (at >= n || dst >= n) return std::nullopt;
  ensure_row(at);
  const int d = dist_[static_cast<std::size_t>(at) * n + dst];
  if (d == kUnreachable) return std::nullopt;
  return d;
}

std::optional<std::vector<core::NodeId>> LinkStateRouting::path(
    core::NodeId src, core::NodeId dst) const {
  maybe_oracle_refresh();
  const std::size_t n = topo_.size();
  if (src >= n || dst >= n) return std::nullopt;
  std::vector<core::NodeId> p{src};
  core::NodeId cur = src;
  while (cur != dst) {
    ensure_row(cur);
    const core::NodeId h = next_[static_cast<std::size_t>(cur) * n + dst];
    if (h == core::kInvalidNode) return std::nullopt;
    p.push_back(h);
    cur = h;
    if (p.size() > n) return std::nullopt;  // defensive: loop
  }
  return p;
}

}  // namespace jtp::routing
