// Per-link loss process: two-state Gilbert–Elliott model.
//
// The paper's linear-topology experiments alternate each link's average
// pathloss between a good state (low loss) and a bad state (high loss),
// with the link in the bad state ~10% of the time and a mean bad dwell of
// 3 s (§6.1.1). Dwell times are exponential; state is advanced lazily at
// query time, so idle links cost nothing.
#pragma once

#include <cstdint>

#include "core/types.h"
#include "phy/link_table.h"
#include "sim/random.h"
#include "sim/time.h"

namespace jtp::phy {

struct ChannelConfig {
  double loss_good = 0.02;      // per-transmission loss prob, good state
  double loss_bad = 0.45;       // per-transmission loss prob, bad state
  double bad_fraction = 0.10;   // long-run share of time in bad state
  double mean_bad_dwell_s = 3.0;
  bool fading_enabled = true;   // false => always good (testbed regime)
  // Expected live links, used to reserve the per-link state tables at
  // construction so steady state never reallocates or rehashes. 0 means
  // "small" (unit tests, testbed); the network sizes it from the node
  // count (~4 links/node in a connected random field).
  std::size_t expected_links = 0;
};

// Table health of the two per-link state tables (see LinkTableStats):
// rehashes > 0 or a probe high-water far above ~1 means expected_links
// under-sized the reserve.
struct ChannelStats {
  LinkTableStats dwell;        // undirected fading-state table
  LinkTableStats loss;         // directed loss-stream table
  std::size_t dwell_links = 0;
  std::size_t loss_streams = 0;
};

class Channel {
 public:
  Channel(ChannelConfig cfg, sim::Rng rng);

  // Current loss probability of directed link (a -> b) at time `now`.
  double loss_probability(core::NodeId a, core::NodeId b, sim::Time now);

  // True in the bad state (for tests/traces).
  bool in_bad_state(core::NodeId a, core::NodeId b, sim::Time now);

  // Draws the fate of one transmission attempt on (a -> b).
  bool transmission_lost(core::NodeId a, core::NodeId b, sim::Time now);

  const ChannelConfig& config() const { return cfg_; }
  double mean_good_dwell_s() const;

  ChannelStats stats() const {
    return {links_.stats(), loss_.stats(), links_.size(), loss_.size()};
  }

 private:
  // Dwell (fading) state of an undirected link. Its rng feeds *only*
  // the flip timeline, so the sequence of (state, next_flip) pairs is a
  // pure function of the link key and the clock — two Channel replicas
  // (one per shard, under the sharded runner) advancing lazily at
  // different query times still replay the identical timeline.
  struct LinkState {
    bool bad = false;
    sim::Time next_flip = 0.0;
    sim::Rng rng;  // derived from the master by link key; seeded as drawn
  };
  LinkState& state_for(core::NodeId a, core::NodeId b);
  void advance(LinkState& s, sim::Time now);

  // Per-attempt loss draws come from a separate stream keyed by the
  // *directed* link: only the sender's shard ever draws (a -> b), so
  // replicas never race on — or double-consume — a shared stream.
  sim::Rng& loss_rng_for(core::NodeId a, core::NodeId b);

  ChannelConfig cfg_;
  sim::Rng master_;
  // Links are undirected for fading purposes: the key packs the sorted
  // (low, high) pair into one word. transmission_lost() runs once per
  // MAC attempt, so the lookup runs against packed open-addressed
  // tables (see link_table.h) reserved for cfg.expected_links; per-link
  // state is created lazily on first query (idle links cost nothing)
  // and derived from the master rng by key, so neither creation order
  // nor table layout can perturb determinism.
  PackedLinkTable<LinkState> links_;
  PackedLinkTable<sim::Rng> loss_;  // directed key
};

}  // namespace jtp::phy
