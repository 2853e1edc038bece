#include "core/ejtp_receiver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace jtp::core {

namespace {
// Per-packet energy is naturally bimodal (a retried packet costs a
// multiple of a clean one), so the energy monitor needs a longer outlier
// run than the rate monitor before it cries "persistent change".
PathMonitorConfig energy_monitor_config(const ReceiverConfig& cfg) {
  PathMonitorConfig m = cfg.monitor;
  m.outlier_run_to_trigger = std::max(5, m.outlier_run_to_trigger);
  return m;
}
}  // namespace

EjtpReceiver::EjtpReceiver(Env& env, PacketSink& sink, ReceiverConfig cfg)
    : env_(env),
      sink_(sink),
      cfg_(cfg),
      tracker_(cfg.loss_tolerance),
      rate_monitor_(cfg.monitor),
      energy_ctl_(cfg.energy_beta, energy_monitor_config(cfg)),
      controller_(cfg.rate) {
  controller_.set_rate_cap(
      std::min(cfg.app_delivery_cap_pps, cfg.rate.max_rate_pps));
}

EjtpReceiver::~EjtpReceiver() { stop(); }

void EjtpReceiver::start() {
  running_ = true;
  arm_regular_feedback();
}

void EjtpReceiver::stop() {
  running_ = false;
  if (feedback_armed_) {
    env_.cancel(feedback_timer_);
    feedback_armed_ = false;
  }
}

double EjtpReceiver::data_rate_estimate() const {
  // The sending rate the controller last advertised is the best local
  // estimate of the incoming data rate.
  return std::max(controller_.rate(), cfg_.rate.min_rate_pps);
}

double EjtpReceiver::current_feedback_period() const {
  if (cfg_.feedback_mode == FeedbackMode::kConstant)
    return 1.0 / cfg_.constant_feedback_rate_pps;
  const double rate = data_rate_estimate();
  // T = max(TLowerBound, n / rate), with TLowerBound additionally bounded
  // by cache pressure: feedback must arrive before a missing packet can be
  // evicted, i.e. TLowerBound <= C/rate - RTT (see DESIGN.md on the TR's
  // dimensional slip here).
  double t_lb = cfg_.t_lower_bound_s;
  const double cache_bound =
      static_cast<double>(cfg_.cache_size_packets) / rate -
      cfg_.rtt_estimate_s;
  if (cache_bound > 0.0) t_lb = std::min(t_lb, cache_bound);
  t_lb = std::max(t_lb, 1.0 / rate);  // never faster than the data rate
  return std::max(t_lb, cfg_.feedback_packets_per_period / rate);
}

void EjtpReceiver::arm_regular_feedback() {
  if (!running_ || feedback_armed_) return;
  feedback_armed_ = true;
  feedback_timer_ = env_.schedule(current_feedback_period(), [this] {
    feedback_armed_ = false;
    // Skip feedback for a connection that has seen no data at all yet;
    // re-arm to keep listening.
    if (last_data_time_ >= 0.0) send_feedback(/*triggered=*/false);
    arm_regular_feedback();
  });
}

void EjtpReceiver::on_data(const Packet& p) {
  assert(p.is_data() && p.flow == cfg_.flow);
  last_data_time_ = env_.now();

  const bool fresh = tracker_.receive(p.seq);
  if (fresh) {
    delivered_bits_ += bits(p.payload_bytes);
    if (on_deliver_) on_deliver_(p.seq, p.payload_bytes);
  }

  // Path monitoring (§5.1): available rate and per-packet energy.
  bool trigger = false;
  if (std::isfinite(p.available_rate_pps))
    trigger |= rate_monitor_.add(p.available_rate_pps).trigger;
  trigger |= energy_ctl_.observe(p.energy_used);

  if (trigger && running_) {
    // Early feedback, but rate-limited so a burst of outliers cannot turn
    // the ACK channel into the congestion it is trying to prevent.
    const double spacing =
        cfg_.min_trigger_spacing_factor * current_feedback_period();
    if (env_.now() - last_feedback_time_ >= spacing) {
      send_feedback(/*triggered=*/true);
      // Restart the regular cadence relative to this early ACK.
      if (feedback_armed_) {
        env_.cancel(feedback_timer_);
        feedback_armed_ = false;
      }
      arm_regular_feedback();
    }
  }
}

void EjtpReceiver::send_feedback(bool triggered) {
  // PI^2/MD iteration on the monitored available path rate (§5.2.1). Until
  // the monitor has a sample, advertise the controller's current rate.
  double advertised = controller_.rate();
  if (rate_monitor_.initialized())
    advertised = controller_.update(rate_monitor_.mean());

  PacketPtr ack = env_.packet_pool().make();
  ack->type = PacketType::kAck;
  ack->flow = cfg_.flow;
  ack->src = cfg_.dst;  // ACKs travel destination -> source
  ack->dst = cfg_.src;
  ack->payload_bytes = 0;
  ack->energy_budget = 0.0;  // ACKs are not energy-budgeted

  // Build the feedback in place in the pooled slot (no copies, and the
  // SNACK sets use the slot's inline storage).
  AckHeader& h = ack->ack.emplace();
  // SNACK only the missing seqs whose previous request (if any) has had a
  // chance to be answered; re-requesting every ACK would make the caches
  // retransmit duplicates of repairs already in flight.
  // Default retry spacing: generous enough for a repair to cross a path
  // of backlogged queues — at least two RTTs and 1.5 feedback periods.
  const double retry_interval =
      cfg_.snack_retry_interval_s > 0.0
          ? cfg_.snack_retry_interval_s
          : std::max(2.0 * cfg_.rtt_estimate_s,
                     1.5 * current_feedback_period());
  const double now = env_.now();
  // If data has stopped flowing (transfer tail), later packets will never
  // arrive to vouch for the gaps — consider every gap a loss.
  const double quiet_after =
      std::max(1.0, 3.0 / data_rate_estimate());
  const int reorder = (now - last_data_time_ > quiet_after)
                          ? 0
                          : cfg_.reorder_threshold;
  tracker_.missing_after_waive(snack_scratch_, 2 * cfg_.max_snack_entries,
                               reorder);
  for (SeqNo seq : snack_scratch_) {
    double& requested_at = tracker_.requested_at(seq);
    if (now - requested_at < retry_interval) continue;
    requested_at = now;
    h.snack.missing.push_back(seq);
    if (h.snack.missing.size() >= cfg_.max_snack_entries) break;
  }
  h.cumulative_ack = tracker_.cumulative_ack();
  h.advertised_rate_pps = advertised;
  h.energy_budget = energy_ctl_.budget();
  h.sender_timeout_s = current_feedback_period();
  h.ack_serial = ++ack_serial_;

  ++acks_sent_;
  if (triggered) ++triggered_acks_;
  last_feedback_time_ = env_.now();
  sink_.send(std::move(ack));
}

}  // namespace jtp::core
