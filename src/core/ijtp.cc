#include "core/ijtp.h"

#include <algorithm>

namespace jtp::core {

IjtpModule::IjtpModule(IjtpConfig cfg)
    : cfg_(cfg), cache_(cfg.cache_capacity_packets) {}

IjtpModule::PreXmitResult IjtpModule::pre_xmit(Packet& p, const LinkView& link,
                                               int remaining_hops,
                                               Joules tx_energy,
                                               bool first_attempt) {
  PreXmitResult res;

  // Algorithm 1, lines 1-3: charge energy, enforce the budget. A zero
  // budget means "unbudgeted" (e.g. ACKs, bootstrap packets).
  p.energy_used += tx_energy;
  if (p.energy_budget > 0.0 && p.energy_used > p.energy_budget) {
    ++energy_drops_;
    res.drop = true;
    return res;
  }

  if (p.is_data() && first_attempt) {
    // Lines 5-9: pick this link's attempt budget from the remaining loss
    // tolerance, then strip the spent budget from the header.
    const int hops = std::max(1, remaining_hops);
    const double q_target = per_link_success_target(p.loss_tolerance, hops);
    res.max_attempts =
        attempt_budget(q_target, link.loss_rate, kDefaultMaxAttempts);
    const double q_achieved =
        achieved_link_success(link.loss_rate, res.max_attempts);
    p.loss_tolerance = update_loss_tolerance(p.loss_tolerance, q_achieved);
  } else {
    res.max_attempts = kDefaultMaxAttempts;
  }

  // Lines 10-12: stamp the minimum effective available rate, normalized by
  // the average number of MAC-level transmissions per packet. The min is
  // unconditional: a zero stamp (saturated node) is information, not
  // absence of it.
  if (p.is_data()) {
    const double attempts = std::max(1.0, link.avg_attempts);
    const double effective = link.available_rate_pps / attempts;
    p.available_rate_pps = std::min(p.available_rate_pps, effective);
  }
  return res;
}

std::size_t IjtpModule::post_rcv(Packet& p, const ForwardFn& forward) {
  if (p.is_data()) {
    if (cfg_.caching_enabled) cache_.insert(p);
    return 0;
  }
  if (!p.is_ack() || !p.ack || !cfg_.caching_enabled) return 0;

  // Algorithm 2, ACK branch: satisfy SNACKed packets from the local cache
  // and rewrite the ACK so upstream nodes see them as locally recovered.
  auto& snack = p.ack->snack;
  SeqList still_missing;  // inline storage: the rewrite never allocates
  std::size_t served = 0;
  for (SeqNo seq : snack.missing) {
    if (served >= cfg_.max_cache_rtx_per_ack) {
      still_missing.push_back(seq);  // burst cap: leave for upstream
      continue;
    }
    const PacketHeader* hit = cache_.lookup(p.flow, seq);
    if (hit == nullptr) {
      still_missing.push_back(seq);
      continue;
    }
    Packet rtx(*hit);  // cached headers carry no ack body
    rtx.is_cache_retransmission = true;
    // The cached copy's soft-state fields describe the path it already
    // travelled; reset the rate stamp so the remaining path re-stamps it.
    rtx.available_rate_pps = std::numeric_limits<double>::infinity();
    if (!forward(std::move(rtx))) {
      // Local queue refused: the recovery never happened; the seq must
      // stay requested so upstream caches or the source repair it.
      still_missing.push_back(seq);
      continue;
    }
    ++served;
    ++cache_rtx_;
    if (cfg_.rewrite_locally_recovered)
      snack.locally_recovered.push_back(seq);
    else
      still_missing.push_back(seq);  // ablation: SNACK left intact
  }
  if (cfg_.rewrite_locally_recovered || served > 0)
    snack.missing = std::move(still_missing);
  return served;
}

}  // namespace jtp::core
