// eJTP sender (paper §2, §4.2, §5).
//
// The source is deliberately dumb: all transmission parameters — sending
// rate, retransmission requests, energy budget, feedback timeout — are
// dictated by the destination through ACKs. The sender:
//   * paces data packets at the advertised rate;
//   * buffers unacknowledged packets and releases them only on cumulative
//     acknowledgment (end-to-end principle: caches are an optimization,
//     the source keeps the authoritative copy);
//   * retransmits only sequence numbers still listed in SNACK.missing
//     after in-network caches had their chance;
//   * backs off for tb = Σ s_j / r(t) whenever the ACK reports N locally
//     recovered packets of sizes s_j (fairness, §4.2);
//   * multiplicatively backs off its rate when an expected ACK fails to
//     arrive (feedback-loss robustness, §2.1.2).
#pragma once

#include <cstdint>
#include <functional>

#include "core/env.h"
#include "core/packet.h"
#include "core/send_window.h"
#include "core/transport.h"
#include "core/types.h"

namespace jtp::core {

struct SenderConfig {
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t payload_bytes = kDefaultPayloadBytes;
  double loss_tolerance = 0.0;        // application reliability target
  double initial_rate_pps = 1.0;
  Joules initial_energy_budget = 0.0; // 0 => unbudgeted until first ACK
  double kd = 0.75;                   // rate back-off on missing feedback
  double min_rate_pps = 0.1;
  // Tolerate this × the advertised feedback period of ACK silence before
  // backing the rate off. Must absorb ACK queueing delay across long
  // backlogged paths, or the watchdog punishes healthy connections.
  double watchdog_margin = 2.5;
  // Rate decreases are adopted verbatim; increases are bounded to this
  // factor per ACK. After a congestion collapse every competing sender
  // sees the same freshly-idle path — jumping straight to the advertised
  // rate re-congests it in lock-step.
  double max_increase_factor = 1.5;
  double default_timeout_s = 10.0;    // before the first ACK arrives
  std::uint64_t window_cap_packets = 4000;  // bound on unreleased buffer
  bool backoff_for_local_recovery = true;   // ablation switch (Fig. 5)
};

class EjtpSender final : public TransportSender {
 public:
  // `sink` outlives the sender; packets handed to it enter the node stack.
  EjtpSender(Env& env, PacketSink& sink, SenderConfig cfg);
  ~EjtpSender() override;
  EjtpSender(const EjtpSender&) = delete;
  EjtpSender& operator=(const EjtpSender&) = delete;

  // Starts a bulk transfer of `total_packets` (0 = unbounded/long-lived).
  void start(std::uint64_t total_packets) override;
  void stop() override;

  // Called by the node when an ACK for this flow reaches the source.
  void on_ack(const Packet& ack) override;

  bool finished() const override { return window_.finished(); }
  void set_on_complete(std::function<void()> cb) override {
    on_complete_ = std::move(cb);
  }

  // --- instrumentation ---
  double rate_pps() const { return rate_pps_; }
  std::uint64_t data_packets_sent() const override { return data_sent_; }
  std::uint64_t source_retransmissions() const override {
    return source_rtx_;
  }
  std::uint64_t locally_recovered_reported() const { return local_recovered_; }
  std::uint64_t acks_received() const { return acks_received_; }
  std::uint64_t rate_backoffs() const { return watchdog_backoffs_; }
  std::uint64_t tail_retransmissions() const { return tail_rtx_; }
  double total_backoff_s() const { return total_backoff_s_; }
  SeqNo next_new_seq() const { return window_.next_seq(); }
  SeqNo cumulative_ack() const { return window_.cum_ack(); }

 private:
  void pace();                 // pacing-timer body: emit one packet
  void arm_pacing(double extra_delay = 0.0);
  void arm_watchdog();
  void watchdog_fire();
  PacketPtr next_packet();  // null when nothing is due
  PacketPtr make_data(SeqNo seq, bool is_rtx);
  void check_complete();

  Env& env_;
  PacketSink& sink_;
  SenderConfig cfg_;

  bool running_ = false;
  SendWindow window_;
  double rate_pps_;
  Joules energy_budget_;
  double ack_timeout_s_;
  double last_ack_time_ = -1.0;
  double last_progress_time_ = 0.0;
  double last_tail_rtx_ = 0.0;
  std::uint64_t last_ack_serial_ = 0;

  double backoff_until_ = 0.0;

  TimerId pacing_timer_ = 0;
  bool pacing_armed_ = false;
  TimerId watchdog_timer_ = 0;
  bool watchdog_armed_ = false;

  std::function<void()> on_complete_;
  bool complete_reported_ = false;

  std::uint64_t data_sent_ = 0;
  std::uint64_t source_rtx_ = 0;
  std::uint64_t local_recovered_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t watchdog_backoffs_ = 0;
  std::uint64_t tail_rtx_ = 0;
  double total_backoff_s_ = 0.0;
  std::uint64_t packet_uid_seed_ = 0;
};

}  // namespace jtp::core
