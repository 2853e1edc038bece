// Rate-based TCP-SACK baseline (paper §6.1).
//
// The paper compares JTP against "a rate-based flavor of TCP-SACK, whereby
// the rate of each flow is set by the well-known throughput equation of
// TCP [Padhye et al.]", with delayed ACKs (one per two packets) and SACK
// selective retransmission. This removes window burstiness (a la TCP
// pacing) but keeps TCP's essential behaviours the paper is critiquing:
//   * loss-driven adaptation (needs drops to find the rate);
//   * frequent sender-directed feedback (ACK every other packet);
//   * end-to-end-only recovery (no MAC control, no caches);
//   * full reliability for everything.
// TCP headers: 40 bytes on data; 60 bytes on ACKs (SACK blocks).
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

inline constexpr std::uint32_t kTcpDataHeaderBytes = 40;
inline constexpr std::uint32_t kTcpAckHeaderBytes = 60;

struct TcpConfig {
  core::FlowId flow = 0;
  core::NodeId src = core::kInvalidNode;
  core::NodeId dst = core::kInvalidNode;
  std::uint32_t payload_bytes = core::kDefaultPayloadBytes;
  double initial_rate_pps = 1.0;
  double min_rate_pps = 0.1;
  double max_rate_pps = 50.0;       // pacing ceiling
  double initial_rtt_s = 2.0;
  double loss_alpha = 0.1;          // EWMA weight for the loss estimate
  double initial_loss = 0.05;       // prior until enough samples
  double delayed_ack_every = 2;     // one ACK per two data packets
  double rto_min_s = 1.0;
  std::uint64_t window_cap_packets = 4000;
};

// Padhye/PFTK steady-state TCP throughput in packets/s for loss rate p,
// round-trip time rtt, retransmission timeout t0 and b packets per ACK.
double pftk_rate_pps(double p, double rtt_s, double rto_s, double b = 2.0);

class TcpSackSender final : public core::TransportSender {
 public:
  TcpSackSender(core::Env& env, core::PacketSink& sink, TcpConfig cfg);
  ~TcpSackSender() override;
  TcpSackSender(const TcpSackSender&) = delete;
  TcpSackSender& operator=(const TcpSackSender&) = delete;

  void start(std::uint64_t total_packets) override;  // 0 = unbounded
  void stop() override;
  void on_ack(const core::Packet& ack) override;

  bool finished() const override { return window_.finished(); }
  void set_on_complete(std::function<void()> cb) override {
    on_complete_ = std::move(cb);
  }
  double rate_pps() const { return rate_pps_; }
  double srtt() const { return srtt_; }
  double loss_estimate() const { return loss_est_; }
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
  void update_rate();
  core::PacketPtr make_data(core::SeqNo seq, bool rtx);

  core::Env& env_;
  core::PacketSink& sink_;
  TcpConfig cfg_;

  bool running_ = false;
  core::SendWindow window_;

  double rate_pps_;
  double srtt_;
  double rttvar_;
  double loss_est_;

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

class TcpSackReceiver final : public core::TransportReceiver {
 public:
  TcpSackReceiver(core::Env& env, core::PacketSink& sink, TcpConfig cfg);

  // TCP's receiver is purely reactive (ACKs are clocked by data), so the
  // lifecycle hooks have nothing to arm or cancel.
  void start() override {}
  void stop() override {}

  void on_data(const core::Packet& p) override;

  std::uint64_t delivered_packets() const override {
    return tracker_.received_count();
  }
  double delivered_payload_bits() const override { return delivered_bits_; }
  std::uint64_t acks_sent() const override { return acks_sent_; }

 private:
  void send_ack(double echo_time);

  core::Env& env_;
  core::PacketSink& sink_;
  TcpConfig cfg_;

  core::SeqTracker tracker_;  // tolerance 0: full reliability
  int data_since_ack_ = 0;

  double delivered_bits_ = 0.0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t ack_serial_ = 0;
};

}  // namespace jtp::baselines
