#include "baselines/tcp_sack.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace jtp::baselines {

double pftk_rate_pps(double p, double rtt_s, double rto_s, double b) {
  if (p <= 0.0) return 1e9;  // caller caps
  p = std::min(p, 0.99);
  const double term1 = rtt_s * std::sqrt(2.0 * b * p / 3.0);
  const double term2 = rto_s * std::min(1.0, 3.0 * std::sqrt(3.0 * b * p / 8.0)) *
                       p * (1.0 + 32.0 * p * p);
  return 1.0 / (term1 + term2);
}

// --------------------------- Sender ---------------------------

TcpSackSender::TcpSackSender(core::Env& env, core::PacketSink& sink,
                             TcpConfig cfg)
    : env_(env),
      sink_(sink),
      cfg_(cfg),
      rate_pps_(std::max(cfg.initial_rate_pps, cfg.min_rate_pps)),
      srtt_(cfg.initial_rtt_s),
      rttvar_(cfg.initial_rtt_s / 2.0),
      loss_est_(cfg.initial_loss) {}

TcpSackSender::~TcpSackSender() { stop(); }

void TcpSackSender::start(std::uint64_t total_packets) {
  running_ = true;
  window_.set_total(total_packets);
  arm_pacing();
  arm_rto();
}

void TcpSackSender::stop() {
  running_ = false;
  if (pacing_armed_) {
    env_.cancel(pacing_timer_);
    pacing_armed_ = false;
  }
  if (rto_armed_) {
    env_.cancel(rto_timer_);
    rto_armed_ = false;
  }
}

core::PacketPtr TcpSackSender::make_data(core::SeqNo seq, bool rtx) {
  core::PacketPtr p = env_.packet_pool().make();
  p->type = core::PacketType::kData;
  p->flow = cfg_.flow;
  p->src = cfg_.src;
  p->dst = cfg_.dst;
  p->seq = seq;
  p->payload_bytes = cfg_.payload_bytes;
  p->header_override_bytes = kTcpDataHeaderBytes;
  p->loss_tolerance = 0.0;  // TCP: full reliability, always
  p->energy_budget = 0.0;   // and no notion of an energy budget
  p->send_time = env_.now();
  p->is_source_retransmission = rtx;
  return p;
}

void TcpSackSender::arm_pacing() {
  if (!running_ || pacing_armed_) return;
  pacing_armed_ = true;
  pacing_timer_ = env_.schedule(1.0 / rate_pps_, [this] {
    pacing_armed_ = false;
    pace();
  });
}

void TcpSackSender::pace() {
  if (!running_) return;
  // Retransmissions first (SACK-driven), then new data.
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

void TcpSackSender::update_rate() {
  const double rto = std::max(cfg_.rto_min_s, srtt_ + 4.0 * rttvar_);
  const double r = pftk_rate_pps(loss_est_, srtt_, rto);
  rate_pps_ = std::clamp(r, cfg_.min_rate_pps, cfg_.max_rate_pps);
}

void TcpSackSender::on_ack(const core::Packet& ack) {
  assert(ack.is_ack() && ack.ack);
  const core::AckHeader& h = *ack.ack;

  // RTT sample from the echoed timestamp (Karn's rule is approximated by
  // the receiver echoing the newest data packet's stamp).
  if (h.echo_send_time >= 0.0) {
    const double sample = env_.now() - h.echo_send_time;
    if (sample > 0.0) {
      const double err = sample - srtt_;
      srtt_ += 0.125 * err;
      rttvar_ += 0.25 * (std::abs(err) - rttvar_);
    }
  }

  // Everything above the holes that the receiver implicitly covered is
  // SACKed; we approximate by marking acked ranges via cumulative only.
  const std::uint64_t progressed = window_.ack_to(h.cumulative_ack);

  // SNACK.missing doubles as the SACK hole list.
  std::uint64_t newly_lost = 0;
  for (core::SeqNo seq : h.snack.missing)
    if (window_.request(seq)) ++newly_lost;

  // Loss estimate: losses / (losses + progressed) blended by EWMA.
  const double denom = static_cast<double>(newly_lost + progressed);
  if (denom > 0) {
    const double sample = static_cast<double>(newly_lost) / denom;
    loss_est_ = (1.0 - cfg_.loss_alpha) * loss_est_ + cfg_.loss_alpha * sample;
  }
  update_rate();
  arm_rto();  // progress: push the timeout out
  if (finished() && !complete_reported_) {
    complete_reported_ = true;
    if (on_complete_) on_complete_();
  }
}

void TcpSackSender::arm_rto() {
  if (rto_armed_) {
    env_.cancel(rto_timer_);
    rto_armed_ = false;
  }
  if (!running_) return;
  const double rto = std::max(cfg_.rto_min_s, srtt_ + 4.0 * rttvar_);
  rto_armed_ = true;
  rto_timer_ = env_.schedule(rto, [this] {
    rto_armed_ = false;
    rto_fire();
  });
}

void TcpSackSender::rto_fire() {
  if (!running_ || finished()) return;
  if (window_.in_flight() > 0) {
    // Timeout: retransmit the oldest outstanding packet and take the loss
    // on the chin in the estimator (this is what makes TCP's energy story
    // bad: it *needs* these events to steer).
    window_.request(window_.cum_ack(), /*front=*/true);
    ++timeouts_;
    loss_est_ = std::min(0.99, loss_est_ * 1.5 + 0.01);
    update_rate();
  }
  arm_rto();
}

// --------------------------- Receiver ---------------------------

TcpSackReceiver::TcpSackReceiver(core::Env& env, core::PacketSink& sink,
                                 TcpConfig cfg)
    : env_(env), sink_(sink), cfg_(cfg) {}

void TcpSackReceiver::on_data(const core::Packet& p) {
  assert(p.is_data() && p.flow == cfg_.flow);
  const bool fresh = tracker_.receive(p.seq);
  if (fresh) delivered_bits_ += core::bits(p.payload_bytes);
  ++data_since_ack_;
  const bool out_of_order_arrival =
      fresh && p.seq != tracker_.cumulative_ack() - 1;
  // Delayed ACK: every b-th packet; immediately on reordering (dup-ack
  // analogue) so the sender learns about holes fast.
  if (data_since_ack_ >= cfg_.delayed_ack_every || out_of_order_arrival) {
    data_since_ack_ = 0;
    send_ack(p.send_time);
  }
}

void TcpSackReceiver::send_ack(double echo_time) {
  core::PacketPtr ack = env_.packet_pool().make();
  ack->type = core::PacketType::kAck;
  ack->flow = cfg_.flow;
  ack->src = cfg_.dst;
  ack->dst = cfg_.src;
  ack->payload_bytes = 0;
  ack->header_override_bytes = kTcpAckHeaderBytes;

  core::AckHeader& h = ack->ack.emplace();
  h.cumulative_ack = tracker_.cumulative_ack();
  h.echo_send_time = echo_time;
  h.ack_serial = ++ack_serial_;
  // SACK holes: the lowest 16 missing seqs above the cumulative ACK.
  tracker_.missing_after_waive(h.snack.missing, 16);

  ++acks_sent_;
  sink_.send(std::move(ack));
}

}  // namespace jtp::baselines
