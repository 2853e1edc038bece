#include "baselines/bbr.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace jtp::baselines {

// probe_bw gain cycle: one probing phase, one draining phase, six cruise
// phases. The cycle start is fixed (index 0) rather than randomized as in
// Linux BBR — determinism across shard counts and reruns is a repo-wide
// invariant worth more here than desynchronizing competing flows.
namespace {
constexpr double kCycleGains[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr std::uint64_t kCycleLen = 8;
}  // namespace

// --------------------------- Model ---------------------------

BbrModel::BbrModel(const BbrConfig& cfg)
    : cfg_(cfg), bw_(cfg.bw_window_rounds), rtt_(cfg.min_rtt_window_s) {}

void BbrModel::on_sample(const core::RateSample& s, double now,
                         std::uint64_t delivered_total,
                         std::uint64_t in_flight) {
  if (!s.valid) return;

  // Round accounting: the sample closes a round when its probe packet was
  // sent at-or-after the previous round's close (BBR's packet-timed
  // rounds — `delivered_total - s.delivered` is the probe's transmit-time
  // delivered snapshot).
  const std::uint64_t prior = delivered_total - s.delivered;
  bool round_advanced = false;
  if (prior >= round_start_delivered_) {
    ++round_;
    round_start_delivered_ = delivered_total;
    round_advanced = true;
  }

  bw_.on_sample(s, round_);
  if (s.rtt_s > 0.0) {
    rtt_.update(s.rtt_s, now);
    // Staleness is judged on the incoming samples, not the filter's
    // remembered output: only a *measurement* at-or-below the floor
    // proves the floor is still the path's propagation delay.
    if (min_rtt_seen_ < 0.0 || s.rtt_s <= min_rtt_seen_) {
      min_rtt_seen_ = s.rtt_s;
      min_rtt_stamp_ = now;
    }
  }

  // Full-pipe detection: bw must grow ≥ full_bw_thresh per round to keep
  // startup alive; app-limited rounds prove nothing about the pipe.
  if (!filled_pipe_ && round_advanced && !s.app_limited) {
    const double bw = bw_.bw_pps();
    if (bw >= full_bw_ * cfg_.full_bw_thresh) {
      full_bw_ = bw;
      full_bw_count_ = 0;
    } else if (++full_bw_count_ >= cfg_.full_bw_rounds) {
      filled_pipe_ = true;
    }
  }

  if (mode_ == Mode::kStartup && filled_pipe_) {
    mode_ = Mode::kDrain;
  }
  if (mode_ == Mode::kDrain) {
    // Drain is over once the startup queue is gone.
    if (static_cast<double>(in_flight) <= bdp_packets()) {
      mode_ = Mode::kProbeBw;
      cycle_index_ = 0;
      cycle_stamp_ = now;
    }
  }
  if (mode_ == Mode::kProbeBw) {
    const double rtt = rtt_.has_estimate() ? rtt_.min_rtt_s()
                                           : cfg_.initial_rtt_s;
    if (now - cycle_stamp_ >= rtt) {
      cycle_index_ = (cycle_index_ + 1) % kCycleLen;
      cycle_stamp_ = now;
    }
  }

  // probe_rtt: the RTT floor went a full window without any sample
  // matching it — every recent sample rode a standing queue, so the
  // model's min-RTT is (or is about to become) a queueing artifact.
  // Drop to the cwnd floor until in-flight drains, hold it there for
  // probe_rtt_duration_s so the path shows its propagation delay, then
  // trust whatever the probe measured.
  if (mode_ != Mode::kProbeRtt && rtt_.has_estimate() &&
      now - min_rtt_stamp_ > cfg_.min_rtt_window_s) {
    mode_ = Mode::kProbeRtt;
    probe_rtt_done_stamp_ = -1.0;
    ++probe_rtt_count_;
  }
  if (mode_ == Mode::kProbeRtt) {
    if (probe_rtt_done_stamp_ < 0.0 && in_flight <= cfg_.min_cwnd_packets)
      probe_rtt_done_stamp_ = now + cfg_.probe_rtt_duration_s;
    if (probe_rtt_done_stamp_ >= 0.0 && now >= probe_rtt_done_stamp_) {
      min_rtt_seen_ = rtt_.min_rtt_s();
      min_rtt_stamp_ = now;
      if (filled_pipe_) {
        mode_ = Mode::kProbeBw;
        cycle_index_ = 0;
        cycle_stamp_ = now;
      } else {
        mode_ = Mode::kStartup;
      }
    }
  }
}

double BbrModel::pacing_gain() const {
  switch (mode_) {
    case Mode::kStartup:
      return cfg_.startup_gain;
    case Mode::kDrain:
      return cfg_.drain_gain;
    case Mode::kProbeBw:
      return kCycleGains[cycle_index_ % kCycleLen];
    case Mode::kProbeRtt:
      return 1.0;  // no probing while the queue is meant to be empty
  }
  return 1.0;
}

double BbrModel::pacing_rate_pps() const {
  const double base =
      bw_.has_estimate() ? bw_.bw_pps() : cfg_.initial_rate_pps;
  return std::clamp(pacing_gain() * base, cfg_.min_rate_pps,
                    cfg_.max_rate_pps);
}

double BbrModel::bdp_packets() const {
  if (!bw_.has_estimate() || !rtt_.has_estimate()) return 0.0;
  return bw_.bw_pps() * rtt_.min_rtt_s();
}

std::uint64_t BbrModel::cwnd_packets() const {
  // The probe_rtt floor overrides the BDP cap: draining the pipe is the
  // whole point of the phase.
  if (mode_ == Mode::kProbeRtt) return cfg_.min_cwnd_packets;
  const double bdp = bdp_packets();
  if (bdp <= 0.0) return 0;  // no model yet: sender's static cap rules
  const double gain =
      mode_ == Mode::kStartup ? cfg_.startup_gain : cfg_.cwnd_gain;
  return std::max<std::uint64_t>(cfg_.min_cwnd_packets,
                                 static_cast<std::uint64_t>(gain * bdp) + 1);
}

// --------------------------- Sender ---------------------------

BbrSender::BbrSender(core::Env& env, core::PacketSink& sink, BbrConfig cfg)
    : env_(env),
      sink_(sink),
      cfg_(cfg),
      model_(cfg),
      srtt_(cfg.initial_rtt_s),
      rttvar_(cfg.initial_rtt_s / 2.0) {}

BbrSender::~BbrSender() { stop(); }

void BbrSender::start(std::uint64_t total_packets) {
  running_ = true;
  window_.set_total(total_packets);
  arm_pacing();
  arm_rto();
}

void BbrSender::stop() {
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

core::PacketPtr BbrSender::make_data(core::SeqNo seq, bool rtx) {
  core::PacketPtr p = env_.packet_pool().make();
  p->type = core::PacketType::kData;
  p->flow = cfg_.flow;
  p->src = cfg_.src;
  p->dst = cfg_.dst;
  p->seq = seq;
  p->payload_bytes = cfg_.payload_bytes;
  p->header_override_bytes = kTcpDataHeaderBytes;  // same wire as kTcp
  p->loss_tolerance = 0.0;
  p->energy_budget = 0.0;
  p->send_time = env_.now();
  p->is_source_retransmission = rtx;
  return p;
}

void BbrSender::arm_pacing() {
  if (!running_ || pacing_armed_) return;
  pacing_armed_ = true;
  pacing_timer_ = env_.schedule(1.0 / model_.pacing_rate_pps(), [this] {
    pacing_armed_ = false;
    pace();
  });
}

void BbrSender::pace() {
  if (!running_) return;
  const double now = env_.now();
  // Retransmissions first (SACK-driven), then new data.
  while (const auto seq = window_.next_rtx()) {
    if (sacked_.count(*seq)) continue;
    ++source_rtx_;
    ++data_sent_;
    sampler_.on_sent(*seq, now);  // Karn: overwrites the stale flight
    sink_.send(make_data(*seq, true));
    arm_pacing();
    return;
  }
  const std::uint64_t model_cwnd = model_.cwnd_packets();
  const std::uint64_t cwnd =
      model_cwnd == 0 ? cfg_.window_cap_packets
                      : std::min(cfg_.window_cap_packets, model_cwnd);
  const bool have_new = window_.has_new();
  if (have_new && in_flight() < cwnd) {
    const core::SeqNo seq = window_.take_new();
    ++data_sent_;
    sampler_.on_sent(seq, now);
    sink_.send(make_data(seq, false));
  } else if (!have_new && in_flight() > 0) {
    // Out of application data with packets still outstanding: windows
    // sampled from here on measure the app, not the path.
    sampler_.mark_app_limited(in_flight());
  }
  if (!finished()) arm_pacing();
}

void BbrSender::on_ack(const core::Packet& ack) {
  assert(ack.is_ack() && ack.ack);
  const core::AckHeader& h = *ack.ack;
  const double now = env_.now();

  // Decode the feedback into per-seq deliveries for the sampler BEFORE
  // the bookkeeping below consumes it. Cumulative advance first …
  for (core::SeqNo s = window_.cum_ack(); s < h.cumulative_ack; ++s)
    sampler_.on_delivered(s, now);
  // … then SACK-implied arrivals: seqs between the cumulative ACK and the
  // highest listed hole that are NOT holes reached the receiver.
  core::SeqNo high = h.cumulative_ack;
  for (core::SeqNo m : h.snack.missing) high = std::max(high, m);
  for (core::SeqNo s = h.cumulative_ack; s < high; ++s) {
    bool missing = false;
    for (core::SeqNo m : h.snack.missing) {
      if (m == s) {
        missing = true;
        break;
      }
    }
    if (!missing) {
      sampler_.on_delivered(s, now);
      if (window_.outstanding(s)) sacked_.insert(s);
    }
  }

  window_.ack_to(h.cumulative_ack);
  while (!sacked_.empty() && *sacked_.begin() < window_.cum_ack())
    sacked_.erase(sacked_.begin());
  sampler_.discard_below(window_.cum_ack());

  // SNACK.missing doubles as the SACK hole list → retransmit queue.
  for (core::SeqNo seq : h.snack.missing)
    if (!sacked_.count(seq)) window_.request(seq);

  // One delivery-rate sample per ACK drives the model; its probe RTT also
  // feeds the RTO estimator (Karn-safe: retransmissions overwrite their
  // transmit record, so the sample always measures the latest flight).
  core::RateSample s = sampler_.take_sample(now);
  if (s.valid && s.rtt_s > 0.0) {
    const double err = s.rtt_s - srtt_;
    srtt_ += 0.125 * err;
    rttvar_ += 0.25 * (std::abs(err) - rttvar_);
  }
  model_.on_sample(s, now, sampler_.delivered_count(), in_flight());

  arm_rto();  // progress: push the timeout out
  if (finished() && !complete_reported_) {
    complete_reported_ = true;
    if (on_complete_) on_complete_();
  }
}

void BbrSender::arm_rto() {
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

void BbrSender::rto_fire() {
  if (!running_ || finished()) return;
  if (window_.in_flight() > 0) {
    const core::SeqNo seq = window_.cum_ack();
    if (!sacked_.count(seq)) window_.request(seq, /*front=*/true);
    ++timeouts_;
  }
  arm_rto();
}

}  // namespace jtp::baselines
