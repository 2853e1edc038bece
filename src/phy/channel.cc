#include "phy/channel.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace jtp::phy {

Channel::Channel(ChannelConfig cfg, sim::Rng rng)
    : cfg_(cfg),
      master_(std::move(rng)),
      links_(cfg.expected_links),
      loss_(cfg.expected_links) {
  if (cfg.bad_fraction < 0.0 || cfg.bad_fraction >= 1.0)
    throw std::invalid_argument("Channel: bad_fraction outside [0,1)");
  if (cfg.mean_bad_dwell_s <= 0.0)
    throw std::invalid_argument("Channel: bad dwell must be positive");
}

double Channel::mean_good_dwell_s() const {
  if (cfg_.bad_fraction <= 0.0) return 1e18;
  // bad_fraction = bad / (bad + good)  =>  good = bad·(1-f)/f.
  return cfg_.mean_bad_dwell_s * (1.0 - cfg_.bad_fraction) / cfg_.bad_fraction;
}

Channel::LinkState& Channel::state_for(core::NodeId a, core::NodeId b) {
  const auto mm = std::minmax(a, b);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(mm.first) << 32) | mm.second;
  return links_.find_or_create(key, [&] {
    LinkState s{false, 0.0, master_.derive("link", key)};
    s.next_flip = s.rng.exponential(mean_good_dwell_s());
    return s;
  });
}

void Channel::advance(LinkState& s, sim::Time now) {
  if (!cfg_.fading_enabled || cfg_.bad_fraction <= 0.0) return;
  while (s.next_flip <= now) {
    s.bad = !s.bad;
    const double dwell = s.bad ? cfg_.mean_bad_dwell_s : mean_good_dwell_s();
    s.next_flip += s.rng.exponential(dwell);
  }
}

double Channel::loss_probability(core::NodeId a, core::NodeId b,
                                 sim::Time now) {
  if (!cfg_.fading_enabled) return cfg_.loss_good;
  LinkState& s = state_for(a, b);
  advance(s, now);
  return s.bad ? cfg_.loss_bad : cfg_.loss_good;
}

bool Channel::in_bad_state(core::NodeId a, core::NodeId b, sim::Time now) {
  if (!cfg_.fading_enabled) return false;
  LinkState& s = state_for(a, b);
  advance(s, now);
  return s.bad;
}

sim::Rng& Channel::loss_rng_for(core::NodeId a, core::NodeId b) {
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  return loss_.find_or_create(key,
                              [&] { return master_.derive("loss", key); });
}

bool Channel::transmission_lost(core::NodeId a, core::NodeId b,
                                sim::Time now) {
  LinkState& s = state_for(a, b);
  advance(s, now);
  const double p = (cfg_.fading_enabled && s.bad) ? cfg_.loss_bad : cfg_.loss_good;
  return loss_rng_for(a, b).bernoulli(p);
}

}  // namespace jtp::phy
