#include "core/ejtp_sender.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace jtp::core {

EjtpSender::EjtpSender(Env& env, PacketSink& sink, SenderConfig cfg)
    : env_(env),
      sink_(sink),
      cfg_(cfg),
      rate_pps_(std::max(cfg.initial_rate_pps, cfg.min_rate_pps)),
      energy_budget_(cfg.initial_energy_budget),
      ack_timeout_s_(cfg.default_timeout_s) {}

EjtpSender::~EjtpSender() { stop(); }

void EjtpSender::start(std::uint64_t total_packets) {
  running_ = true;
  window_.set_total(total_packets);
  complete_reported_ = false;
  arm_pacing();
  arm_watchdog();
}

void EjtpSender::stop() {
  running_ = false;
  if (pacing_armed_) {
    env_.cancel(pacing_timer_);
    pacing_armed_ = false;
  }
  if (watchdog_armed_) {
    env_.cancel(watchdog_timer_);
    watchdog_armed_ = false;
  }
}

void EjtpSender::arm_pacing(double extra_delay) {
  if (!running_ || pacing_armed_) return;
  double delay = 1.0 / rate_pps_ + extra_delay;
  // Honor a pending fairness back-off window (§4.2).
  const double now = env_.now();
  if (backoff_until_ > now + delay) delay = backoff_until_ - now;
  pacing_armed_ = true;
  pacing_timer_ = env_.schedule(delay, [this] {
    pacing_armed_ = false;
    pace();
  });
}

PacketPtr EjtpSender::make_data(SeqNo seq, bool is_rtx) {
  PacketPtr p = env_.packet_pool().make();
  p->type = PacketType::kData;
  p->flow = cfg_.flow;
  p->src = cfg_.src;
  p->dst = cfg_.dst;
  p->seq = seq;
  p->payload_bytes = cfg_.payload_bytes;
  p->loss_tolerance = cfg_.loss_tolerance;
  p->energy_budget = energy_budget_;
  p->energy_used = 0.0;
  p->available_rate_pps =
      std::numeric_limits<double>::infinity();  // stamped along the path
  p->is_source_retransmission = is_rtx;
  p->uid = (static_cast<std::uint64_t>(cfg_.flow) << 40) ^ ++packet_uid_seed_;
  return p;
}

PacketPtr EjtpSender::next_packet() {
  // Source retransmissions take priority: the receiver explicitly asked.
  if (const auto seq = window_.next_rtx()) {
    ++source_rtx_;
    return make_data(*seq, /*is_rtx=*/true);
  }
  if (!window_.may_send_new(cfg_.window_cap_packets)) return {};
  return make_data(window_.take_new(), /*is_rtx=*/false);
}

void EjtpSender::pace() {
  if (!running_) return;
  if (auto p = next_packet()) {
    ++data_sent_;
    sink_.send(std::move(p));
    arm_pacing();
    return;
  }
  if (finished()) {
    check_complete();
    return;
  }
  // Nothing new to send but the transfer is not acknowledged: this is the
  // tail-loss case. A lost *final* packet never enters the receiver's
  // sequence horizon, so no SNACK will ever name it — only the source can
  // notice. After ~2 feedback periods without cumulative progress,
  // retransmit the oldest outstanding packet.
  if (!window_.has_new() && window_.in_flight() > 0) {
    const double now = env_.now();
    const double stall = now - std::max(last_progress_time_, last_tail_rtx_);
    if (stall > 2.0 * ack_timeout_s_) {
      last_tail_rtx_ = now;
      window_.request(window_.cum_ack());
      ++tail_rtx_;
    }
  }
  // Idle-poll at the pacing rate. Cheap in the simulator and keeps the
  // sender reactive without a separate wakeup channel.
  arm_pacing();
}

void EjtpSender::on_ack(const Packet& ack) {
  assert(ack.is_ack() && ack.ack);
  const AckHeader& h = *ack.ack;
  // ACKs can be reordered by retries along the reverse path; an older ACK
  // carries stale rate/energy/SNACK state and must not override a newer
  // one (its cumulative ack is monotone and harmless, but nothing else is).
  if (h.ack_serial != 0 && h.ack_serial <= last_ack_serial_) {
    window_.ack_to(h.cumulative_ack);
    check_complete();
    return;
  }
  last_ack_serial_ = h.ack_serial;
  ++acks_received_;
  last_ack_time_ = env_.now();

  // Release everything below the cumulative ack (delivered or waived).
  if (window_.ack_to(h.cumulative_ack) > 0) last_progress_time_ = env_.now();

  // Adopt destination-dictated parameters (decrease fast, increase slow).
  if (h.advertised_rate_pps > 0.0) {
    double target = h.advertised_rate_pps;
    if (target > rate_pps_)
      target = std::min(target, rate_pps_ * cfg_.max_increase_factor);
    rate_pps_ = std::max(target, cfg_.min_rate_pps);
  }
  if (h.energy_budget > 0.0) energy_budget_ = h.energy_budget;
  if (h.sender_timeout_s > 0.0) ack_timeout_s_ = h.sender_timeout_s;

  // Queue source retransmissions for seqs no cache could supply.
  for (SeqNo seq : h.snack.missing) window_.request(seq);

  // Fairness back-off for in-network retransmissions made on our behalf:
  // tb = Σ s_j / r(t)  (§4.2). Every packet of the flow carries the one
  // configured payload, so with r in packets per second tb = N / r.
  if (!h.snack.locally_recovered.empty()) {
    local_recovered_ += h.snack.locally_recovered.size();
    if (cfg_.backoff_for_local_recovery) {
      const double tb =
          static_cast<double>(h.snack.locally_recovered.size()) / rate_pps_;
      backoff_until_ = std::max(backoff_until_, env_.now() + tb);
      total_backoff_s_ += tb;
    }
  }

  // Re-pace immediately at the new rate.
  if (pacing_armed_) {
    env_.cancel(pacing_timer_);
    pacing_armed_ = false;
  }
  arm_pacing();
  check_complete();
}

void EjtpSender::arm_watchdog() {
  if (!running_ || watchdog_armed_) return;
  watchdog_armed_ = true;
  watchdog_timer_ =
      env_.schedule(cfg_.watchdog_margin * ack_timeout_s_, [this] {
        watchdog_armed_ = false;
        watchdog_fire();
      });
}

void EjtpSender::watchdog_fire() {
  if (!running_) return;
  const double silence =
      last_ack_time_ < 0 ? env_.now() : env_.now() - last_ack_time_;
  if (silence >= cfg_.watchdog_margin * ack_timeout_s_ && data_sent_ > 0) {
    // Feedback went missing: rate-based control is vulnerable to this, so
    // back off multiplicatively until the receiver is heard again.
    rate_pps_ = std::max(rate_pps_ * cfg_.kd, cfg_.min_rate_pps);
    ++watchdog_backoffs_;
  }
  arm_watchdog();
}

void EjtpSender::check_complete() {
  if (!finished() || complete_reported_) return;
  complete_reported_ = true;
  if (on_complete_) on_complete_();
}

}  // namespace jtp::core
