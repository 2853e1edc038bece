// ATP-like baseline (paper §6.1, after Sundaresan et al. [34]).
//
// Representative of explicit rate-based transports for ad-hoc networks:
//   * intermediate nodes stamp the available path rate into data headers
//     (same stamping fabric JTP uses, minus attempt control and caching);
//   * the receiver feeds the smoothed rate back at a *constant* period D,
//     chosen larger than the RTT;
//   * recovery is end-to-end only: holes are reported in the feedback and
//     retransmitted by the source;
//   * full reliability; no MAC attempt control (fixed MAX_ATTEMPTS).
// Sender rate rule (ATP): if the reported rate is below the current rate,
// adopt it; if above, close a fraction of the gap per feedback epoch.
#pragma once

#include <cstdint>
#include <functional>

#include "core/env.h"
#include "core/packet.h"
#include "core/send_window.h"
#include "core/seq_tracker.h"
#include "core/transport.h"
#include "core/types.h"

namespace jtp::baselines {

inline constexpr std::uint32_t kAtpDataHeaderBytes = 32;
inline constexpr std::uint32_t kAtpAckHeaderBytes = 100;

struct AtpConfig {
  core::FlowId flow = 0;
  core::NodeId src = core::kInvalidNode;
  core::NodeId dst = core::kInvalidNode;
  std::uint32_t payload_bytes = core::kDefaultPayloadBytes;
  double initial_rate_pps = 1.0;
  double min_rate_pps = 0.1;
  double max_rate_pps = 50.0;
  double feedback_period_s = 3.0;   // D, set > RTT as ATP recommends
  double rate_ewma_alpha = 0.2;     // receiver-side smoothing of stamps
  double increase_fraction = 0.5;   // close this share of the gap upward
  double silence_backoff = 0.75;    // no feedback => multiplicative backoff
  double silence_margin = 2.0;      // backoff after margin × D of silence
  std::size_t max_holes_per_ack = 64;
  std::uint64_t window_cap_packets = 4000;
};

class AtpSender final : public core::TransportSender {
 public:
  AtpSender(core::Env& env, core::PacketSink& sink, AtpConfig cfg);
  ~AtpSender() override;
  AtpSender(const AtpSender&) = delete;
  AtpSender& operator=(const AtpSender&) = delete;

  void start(std::uint64_t total_packets) override;
  void stop() override;
  void on_ack(const core::Packet& ack) override;

  bool finished() const override { return window_.finished(); }
  void set_on_complete(std::function<void()> cb) override {
    on_complete_ = std::move(cb);
  }
  double rate_pps() const { return rate_pps_; }
  std::uint64_t data_packets_sent() const override { return data_sent_; }
  std::uint64_t source_retransmissions() const override {
    return source_rtx_;
  }
  core::SeqNo cumulative_ack() const { return window_.cum_ack(); }

 private:
  void pace();
  void arm_pacing();
  void arm_silence_watchdog();
  core::PacketPtr make_data(core::SeqNo seq, bool rtx);

  core::Env& env_;
  core::PacketSink& sink_;
  AtpConfig cfg_;

  bool running_ = false;
  core::SendWindow window_;

  double rate_pps_;
  double last_ack_time_ = -1.0;

  core::TimerId pacing_timer_ = 0;
  bool pacing_armed_ = false;
  core::TimerId silence_timer_ = 0;
  bool silence_armed_ = false;

  std::uint64_t data_sent_ = 0;
  std::uint64_t source_rtx_ = 0;
  std::function<void()> on_complete_;
  bool complete_reported_ = false;
};

class AtpReceiver final : public core::TransportReceiver {
 public:
  AtpReceiver(core::Env& env, core::PacketSink& sink, AtpConfig cfg);
  ~AtpReceiver() override;
  AtpReceiver(const AtpReceiver&) = delete;
  AtpReceiver& operator=(const AtpReceiver&) = delete;

  void start() override;
  void stop() override;
  void on_data(const core::Packet& p) override;

  std::uint64_t delivered_packets() const override {
    return tracker_.received_count();
  }
  double delivered_payload_bits() const override { return delivered_bits_; }
  std::uint64_t acks_sent() const override { return acks_sent_; }
  double smoothed_rate_pps() const { return rate_ewma_; }

 private:
  void feedback_tick();

  core::Env& env_;
  core::PacketSink& sink_;
  AtpConfig cfg_;

  core::SeqTracker tracker_;  // tolerance 0: full reliability
  double rate_ewma_ = 0.0;
  bool rate_init_ = false;
  bool saw_data_ = false;
  double last_echo_time_ = -1.0;

  bool running_ = false;
  core::TimerId timer_ = 0;
  bool timer_armed_ = false;

  double delivered_bits_ = 0.0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t ack_serial_ = 0;
};

}  // namespace jtp::baselines
