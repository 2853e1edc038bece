// iJTP: the hop-by-hop module (paper §2.2.2, Algorithms 1 and 2).
//
// iJTP is a MAC plug-in invoked just before every transmission over the air
// interface (PreXmit) and just after every reception (PostRcv). It keeps no
// per-flow state: everything it needs rides in packet headers (Dynamic
// Packet State) plus a shared LRU cache of traversing data packets.
//
// PreXmit (Algorithm 1):
//   1. charge the transmission's energy to the packet; drop if over budget;
//   2. on the packet's first transmission at this node, pick the per-link
//      attempt budget from the loss-tolerance field and the link's loss
//      estimate (eqs. 2–4) and rewrite the loss-tolerance field (eq. 3);
//   3. stamp the header with the min effective available rate so far.
//
// PostRcv (Algorithm 2):
//   - DATA: insert into the cache;
//   - ACK: retransmit any SNACKed packets found in the cache and move them
//     from the SNACK's missing set to its locally-recovered set, so
//     upstream caches and the source do not retransmit them again.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cache.h"
#include "core/env.h"
#include "core/packet.h"
#include "core/reliability.h"

namespace jtp::core {

struct IjtpConfig {
  std::size_t cache_capacity_packets = 1000;  // Table 1
  bool caching_enabled = true;                // false => JNC baseline
  bool rewrite_locally_recovered = true;      // ablation: duplicate rtx
  // Cap on cache retransmissions served from one traversing ACK, so a
  // large SNACK cannot burst-flood this node's transmit queue. Seqs
  // beyond the cap stay in SNACK.missing for upstream caches / the source.
  std::size_t max_cache_rtx_per_ack = 8;
};

class IjtpModule {
 public:
  explicit IjtpModule(IjtpConfig cfg = {});

  struct PreXmitResult {
    bool drop = false;        // energy budget exceeded: do not transmit
    int max_attempts = 1;     // attempt budget handed to the MAC
  };

  // `first_attempt` is true for the packet's first transmission at this
  // node (retries of the same packet skip the attempt-budget computation).
  // `tx_energy` is the energy this attempt will consume, `remaining_hops`
  // comes from the node's (possibly stale) routing view.
  PreXmitResult pre_xmit(Packet& p, const LinkView& link, int remaining_hops,
                         Joules tx_energy, bool first_attempt);

  // Processes a received packet (Algorithm 2). For ACKs, SNACKed packets
  // found in the cache are handed to `forward` (the node's transmit path,
  // toward the data destination); `forward` returns false when the local
  // queue refuses the packet. Only *successfully forwarded* packets are
  // moved from SNACK.missing to SNACK.locally_recovered — a recovery that
  // never left this node must stay visible upstream. Returns the number
  // of packets locally retransmitted.
  using ForwardFn = std::function<bool(Packet&&)>;
  std::size_t post_rcv(Packet& p, const ForwardFn& forward);

  // Convenience for data packets / tests: no forwarding needed.
  std::size_t post_rcv(Packet& p) {
    return post_rcv(p, [](Packet&&) { return true; });
  }

  PacketCache& cache() { return cache_; }
  const PacketCache& cache() const { return cache_; }
  const IjtpConfig& config() const { return cfg_; }

  std::uint64_t energy_drops() const { return energy_drops_; }
  std::uint64_t cache_retransmissions() const { return cache_rtx_; }

 private:
  IjtpConfig cfg_;
  PacketCache cache_;
  std::uint64_t energy_drops_ = 0;
  std::uint64_t cache_rtx_ = 0;
};

}  // namespace jtp::core
