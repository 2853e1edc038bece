#include "baselines/atp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace jtp::baselines {

// --------------------------- Sender ---------------------------

AtpSender::AtpSender(core::Env& env, core::PacketSink& sink, AtpConfig cfg)
    : env_(env),
      sink_(sink),
      cfg_(cfg),
      rate_pps_(std::max(cfg.initial_rate_pps, cfg.min_rate_pps)) {}

AtpSender::~AtpSender() { stop(); }

void AtpSender::start(std::uint64_t total_packets) {
  running_ = true;
  window_.set_total(total_packets);
  arm_pacing();
  arm_silence_watchdog();
}

void AtpSender::stop() {
  running_ = false;
  if (pacing_armed_) {
    env_.cancel(pacing_timer_);
    pacing_armed_ = false;
  }
  if (silence_armed_) {
    env_.cancel(silence_timer_);
    silence_armed_ = false;
  }
}

core::PacketPtr AtpSender::make_data(core::SeqNo seq, bool rtx) {
  core::PacketPtr p = env_.packet_pool().make();
  p->type = core::PacketType::kData;
  p->flow = cfg_.flow;
  p->src = cfg_.src;
  p->dst = cfg_.dst;
  p->seq = seq;
  p->payload_bytes = cfg_.payload_bytes;
  p->header_override_bytes = kAtpDataHeaderBytes;
  p->loss_tolerance = 0.0;
  p->energy_budget = 0.0;
  p->available_rate_pps =
      std::numeric_limits<double>::infinity();  // stamped along the path
  p->send_time = env_.now();
  p->is_source_retransmission = rtx;
  return p;
}

void AtpSender::arm_pacing() {
  if (!running_ || pacing_armed_) return;
  pacing_armed_ = true;
  pacing_timer_ = env_.schedule(1.0 / rate_pps_, [this] {
    pacing_armed_ = false;
    pace();
  });
}

void AtpSender::pace() {
  if (!running_) return;
  if (const auto seq = window_.next_rtx()) {
    ++source_rtx_;
    ++data_sent_;
    sink_.send(make_data(*seq, true));
    arm_pacing();
    return;
  }
  if (window_.may_send_new(cfg_.window_cap_packets)) {
    ++data_sent_;
    sink_.send(make_data(window_.take_new(), false));
  }
  if (!finished()) arm_pacing();
}

void AtpSender::on_ack(const core::Packet& ack) {
  assert(ack.is_ack() && ack.ack);
  const core::AckHeader& h = *ack.ack;
  last_ack_time_ = env_.now();

  window_.ack_to(h.cumulative_ack);
  for (core::SeqNo seq : h.snack.missing) window_.request(seq);

  // ATP rate rule: decrease to the network's reported rate immediately;
  // increase toward it only fractionally.
  const double reported = h.advertised_rate_pps;
  if (reported > 0.0) {
    if (reported < rate_pps_)
      rate_pps_ = reported;
    else
      rate_pps_ += cfg_.increase_fraction * (reported - rate_pps_);
    rate_pps_ = std::clamp(rate_pps_, cfg_.min_rate_pps, cfg_.max_rate_pps);
  }
  if (finished() && !complete_reported_) {
    complete_reported_ = true;
    if (on_complete_) on_complete_();
  }
}

void AtpSender::arm_silence_watchdog() {
  if (!running_ || silence_armed_) return;
  silence_armed_ = true;
  silence_timer_ = env_.schedule(
      cfg_.silence_margin * cfg_.feedback_period_s, [this] {
        silence_armed_ = false;
        if (!running_) return;
        const double silence = last_ack_time_ < 0
                                   ? env_.now()
                                   : env_.now() - last_ack_time_;
        if (silence >= cfg_.silence_margin * cfg_.feedback_period_s &&
            data_sent_ > 0)
          rate_pps_ = std::max(rate_pps_ * cfg_.silence_backoff,
                               cfg_.min_rate_pps);
        arm_silence_watchdog();
      });
}

// --------------------------- Receiver ---------------------------

AtpReceiver::AtpReceiver(core::Env& env, core::PacketSink& sink, AtpConfig cfg)
    : env_(env), sink_(sink), cfg_(cfg) {}

AtpReceiver::~AtpReceiver() { stop(); }

void AtpReceiver::start() {
  running_ = true;
  if (!timer_armed_) {
    timer_armed_ = true;
    timer_ = env_.schedule(cfg_.feedback_period_s, [this] {
      timer_armed_ = false;
      feedback_tick();
    });
  }
}

void AtpReceiver::stop() {
  running_ = false;
  if (timer_armed_) {
    env_.cancel(timer_);
    timer_armed_ = false;
  }
}

void AtpReceiver::on_data(const core::Packet& p) {
  assert(p.is_data() && p.flow == cfg_.flow);
  saw_data_ = true;
  last_echo_time_ = p.send_time;
  if (tracker_.receive(p.seq)) delivered_bits_ += core::bits(p.payload_bytes);
  if (std::isfinite(p.available_rate_pps)) {
    if (!rate_init_) {
      rate_ewma_ = p.available_rate_pps;
      rate_init_ = true;
    } else {
      rate_ewma_ = (1.0 - cfg_.rate_ewma_alpha) * rate_ewma_ +
                   cfg_.rate_ewma_alpha * p.available_rate_pps;
    }
  }
}

void AtpReceiver::feedback_tick() {
  if (!running_) return;
  if (saw_data_) {
    core::PacketPtr ack = env_.packet_pool().make();
    ack->type = core::PacketType::kAck;
    ack->flow = cfg_.flow;
    ack->src = cfg_.dst;
    ack->dst = cfg_.src;
    ack->payload_bytes = 0;
    ack->header_override_bytes = kAtpAckHeaderBytes;

    core::AckHeader& h = ack->ack.emplace();
    h.cumulative_ack = tracker_.cumulative_ack();
    h.advertised_rate_pps = rate_init_ ? rate_ewma_ : 0.0;
    h.echo_send_time = last_echo_time_;
    h.sender_timeout_s = cfg_.feedback_period_s;
    h.ack_serial = ++ack_serial_;
    tracker_.missing_after_waive(h.snack.missing, cfg_.max_holes_per_ack);

    ++acks_sent_;
    sink_.send(std::move(ack));
  }
  timer_armed_ = true;
  timer_ = env_.schedule(cfg_.feedback_period_s, [this] {
    timer_armed_ = false;
    feedback_tick();
  });
}

}  // namespace jtp::baselines
