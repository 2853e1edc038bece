// BBR-style congestion control baseline (Proto::kBbr).
//
// A model-based modern baseline to set against the paper's protocols:
// instead of loss-driven PFTK rate selection (tcp_sack.h) or explicit
// per-hop feedback (JTP), the sender builds a model of the path — max
// delivery rate × min RTT — from per-ACK RateSamples (core/rate_sample.h)
// and paces at gain × bottleneck-bw through a startup / drain / probe_bw
// state machine (Cardwell et al., "BBR: Congestion-Based Congestion
// Control", CACM 2017):
//   * startup: pacing_gain 2/ln2 ≈ 2.885 doubles the rate each RTT until
//     the bw filter plateaus (growth < 25% for 3 rounds → pipe full);
//   * drain: one inverse-gain phase bleeds the startup queue until
//     in-flight ≤ BDP;
//   * probe_bw: an 8-phase gain cycle {1.25, 0.75, 1, 1, 1, 1, 1, 1}
//     advanced once per min-RTT probes for more bandwidth, then drains
//     what the probe queued;
//   * probe_rtt: when the RTT floor goes a full min_rtt_window_s without
//     being matched or lowered (every sample rode a standing queue), the
//     cwnd drops to min_cwnd_packets for probe_rtt_duration_s once
//     in-flight has drained to the floor, so the next samples measure
//     propagation delay rather than queue; exits to probe_bw (pipe full)
//     or back to startup. Time-gated and phase-fixed — deterministic,
//     like the cycle start above.
// In-flight is additionally capped at cwnd_gain × BDP. Feedback rides
// the TCP-SACK receiver unchanged (delayed ACKs, SACK hole lists), so
// the comparison isolates the congestion-control model: same headers,
// same ACK cadence, same recovery channel as the kTcp baseline.
//
// BbrModel is deliberately Env-free (pure state machine over samples) so
// micro_perf can drive BM_BbrStateMachine without a simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "baselines/tcp_sack.h"
#include "core/env.h"
#include "core/packet.h"
#include "core/rate_sample.h"
#include "core/send_window.h"
#include "core/transport.h"
#include "core/types.h"

namespace jtp::baselines {

struct BbrConfig {
  core::FlowId flow = 0;
  core::NodeId src = core::kInvalidNode;
  core::NodeId dst = core::kInvalidNode;
  std::uint32_t payload_bytes = core::kDefaultPayloadBytes;

  double initial_rate_pps = 1.0;
  double min_rate_pps = 0.1;
  double max_rate_pps = 50.0;  // pacing ceiling (factory: 4 × capacity)
  double initial_rtt_s = 2.0;  // prior until the first RTT sample
  double rto_min_s = 1.0;
  std::uint64_t window_cap_packets = 4000;

  // --- model knobs ---
  double startup_gain = 2.885;       // 2/ln 2
  double drain_gain = 1.0 / 2.885;
  double cwnd_gain = 2.0;            // in-flight cap, × BDP
  double full_bw_thresh = 1.25;      // growth below this …
  std::uint64_t full_bw_rounds = 3;  // … for this many rounds = pipe full
  std::uint64_t bw_window_rounds = 10;
  double min_rtt_window_s = 10.0;
  std::uint64_t min_cwnd_packets = 4;
  // probe_rtt hold: how long in-flight sits at the min_cwnd_packets
  // floor before the refreshed RTT floor is trusted and the mode exits.
  double probe_rtt_duration_s = 0.2;
};

// The pure BBR state machine: samples in, pacing rate / cwnd out.
class BbrModel {
 public:
  enum class Mode : std::uint8_t { kStartup, kDrain, kProbeBw, kProbeRtt };

  explicit BbrModel(const BbrConfig& cfg);

  // One delivery-rate sample; `delivered_total` is the sampler's running
  // delivered count, `in_flight` the sender's outstanding packets.
  void on_sample(const core::RateSample& s, double now,
                 std::uint64_t delivered_total, std::uint64_t in_flight);

  double pacing_rate_pps() const;
  // 0 = no cap yet (model has no RTT/bw estimate; the sender's static
  // window cap still applies).
  std::uint64_t cwnd_packets() const;

  Mode mode() const { return mode_; }
  bool filled_pipe() const { return filled_pipe_; }
  double pacing_gain() const;
  double bw_pps() const { return bw_.bw_pps(); }
  double min_rtt_s() const { return rtt_.min_rtt_s(); }
  std::uint64_t round_count() const { return round_; }
  std::uint64_t cycle_index() const { return cycle_index_; }
  std::uint64_t probe_rtt_count() const { return probe_rtt_count_; }

 private:
  double bdp_packets() const;

  const BbrConfig cfg_;
  core::BandwidthEstimator bw_;
  core::MinRttTracker rtt_;

  Mode mode_ = Mode::kStartup;
  std::uint64_t round_ = 0;
  std::uint64_t round_start_delivered_ = 0;

  double full_bw_ = 0.0;
  std::uint64_t full_bw_count_ = 0;
  bool filled_pipe_ = false;

  std::uint64_t cycle_index_ = 0;  // probe_bw phase
  double cycle_stamp_ = 0.0;       // time the current phase began

  // probe_rtt bookkeeping. The tracker's windowed min self-expires, so
  // staleness is judged here: min_rtt_stamp_ is the last time the filter
  // showed an RTT at-or-below every one seen before (a queue inflating
  // every sample stops refreshing it; BBR's min_rtt_stamp).
  double min_rtt_seen_ = -1.0;
  double min_rtt_stamp_ = 0.0;
  double probe_rtt_done_stamp_ = -1.0;  // <0: floor not yet reached
  std::uint64_t probe_rtt_count_ = 0;
};

class BbrSender final : public core::TransportSender {
 public:
  BbrSender(core::Env& env, core::PacketSink& sink, BbrConfig cfg);
  ~BbrSender() override;
  BbrSender(const BbrSender&) = delete;
  BbrSender& operator=(const BbrSender&) = delete;

  void start(std::uint64_t total_packets) override;  // 0 = unbounded
  void stop() override;
  void on_ack(const core::Packet& ack) override;

  bool finished() const override { return window_.finished(); }
  void set_on_complete(std::function<void()> cb) override {
    on_complete_ = std::move(cb);
  }

  // --- instrumentation ---
  const BbrModel& model() const { return model_; }
  const core::RateSampler& sampler() const { return sampler_; }
  double rate_pps() const { return model_.pacing_rate_pps(); }
  std::uint64_t data_packets_sent() const override { return data_sent_; }
  std::uint64_t source_retransmissions() const override {
    return source_rtx_;
  }
  std::uint64_t timeouts() const { return timeouts_; }
  core::SeqNo cumulative_ack() const { return window_.cum_ack(); }

 private:
  void pace();
  void arm_pacing();
  void arm_rto();
  void rto_fire();
  // Outstanding packets the receiver has not reported (SACK-implied
  // arrivals above the cumulative ACK are not in flight).
  std::uint64_t in_flight() const {
    return window_.in_flight() - sacked_.size();
  }
  core::PacketPtr make_data(core::SeqNo seq, bool rtx);

  core::Env& env_;
  core::PacketSink& sink_;
  BbrConfig cfg_;

  core::RateSampler sampler_;
  BbrModel model_;

  bool running_ = false;
  core::SendWindow window_;
  std::set<core::SeqNo> sacked_;  // outstanding, but already received

  double srtt_;
  double rttvar_;

  core::TimerId pacing_timer_ = 0;
  bool pacing_armed_ = false;
  core::TimerId rto_timer_ = 0;
  bool rto_armed_ = false;

  std::uint64_t data_sent_ = 0;
  std::uint64_t source_rtx_ = 0;
  std::uint64_t timeouts_ = 0;
  std::function<void()> on_complete_;
  bool complete_reported_ = false;
};

}  // namespace jtp::baselines
