// eJTP receiver: destination-based control (paper §5).
//
// The receiver owns every control decision of the connection:
//   * a flip-flop path monitor watches the min-available-rate samples
//     stamped into data headers; a second monitor (inside the energy-budget
//     controller) watches per-packet energy-used;
//   * a PI²/MD controller turns the monitored available rate into the
//     sending rate advertised to the source;
//   * feedback (ACK) packets are generated at a variable rate: regularly
//     every T = max(TLowerBound_eff, n/rate) seconds, immediately when a
//     monitor flags a persistent path change, and never faster than the
//     data rate;
//   * SNACKs list only the missing packets the application still needs
//     after applying its loss tolerance (SeqTracker's waive quota);
//   * the receiver's feedback period T is advertised to the sender (ACK
//     "sender timeout") so the sender can detect feedback loss.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/energy_controller.h"
#include "core/env.h"
#include "core/packet.h"
#include "core/path_monitor.h"
#include "core/rate_controller.h"
#include "core/seq_tracker.h"
#include "core/transport.h"
#include "core/types.h"

namespace jtp::core {

enum class FeedbackMode {
  kVariable,  // JTP: low-frequency regular + monitor-triggered early ACKs
  kConstant,  // fixed feedback rate (Fig. 7 comparison, ATP-style)
};

struct ReceiverConfig {
  FlowId flow = 0;
  NodeId src = kInvalidNode;  // data source (= ACK destination)
  NodeId dst = kInvalidNode;  // this node
  double loss_tolerance = 0.0;
  FeedbackMode feedback_mode = FeedbackMode::kVariable;
  double constant_feedback_rate_pps = 0.2;  // only in kConstant mode
  double t_lower_bound_s = 10.0;            // Table 1
  double feedback_packets_per_period = 4.0; // the "n" in T = n/rate
  double rtt_estimate_s = 2.0;              // for the cache-pressure bound
  std::size_t cache_size_packets = 1000;    // C, for TLowerBound <= C/r - RTT
  std::size_t max_snack_entries = 32;       // ACK header space budget
  // A missing seq is re-requested at most once per this interval, giving
  // an earlier recovery (cache copy or source rtx) time to arrive before
  // the request is repeated. 0 = derive from the RTT estimate.
  double snack_retry_interval_s = 0.0;
  // A gap becomes requestable only after this many later packets arrive
  // (in-flight packets behind deep queues are not losses). Bypassed when
  // the flow has gone quiet, so tail losses are still recovered.
  int reorder_threshold = 3;
  double min_trigger_spacing_factor = 0.25; // early ACKs >= this × T apart
  double energy_beta = 2.0;                 // β in e = β·eUCL (eq. 13)
  double app_delivery_cap_pps = 1e6;        // receiver up-stack rate limit
  PathMonitorConfig monitor;
  RateControllerConfig rate;
};

class EjtpReceiver final : public TransportReceiver {
 public:
  EjtpReceiver(Env& env, PacketSink& sink, ReceiverConfig cfg);
  ~EjtpReceiver() override;
  EjtpReceiver(const EjtpReceiver&) = delete;
  EjtpReceiver& operator=(const EjtpReceiver&) = delete;

  void start() override;
  void stop() override;

  // Called by the node when a data packet of this flow arrives.
  void on_data(const Packet& p) override;

  // --- instrumentation ---
  std::uint64_t acks_sent() const override { return acks_sent_; }
  std::uint64_t triggered_acks() const { return triggered_acks_; }
  std::uint64_t delivered_packets() const override {
    return tracker_.received_count();
  }
  std::uint64_t waived_packets() const override {
    return tracker_.waived_count();
  }
  std::uint64_t duplicates() const { return tracker_.duplicate_count(); }
  double delivered_payload_bits() const override { return delivered_bits_; }
  double current_feedback_period() const;
  double advertised_rate_pps() const { return controller_.rate(); }
  const PathMonitor& rate_monitor() const { return rate_monitor_; }
  const SeqTracker& tracker() const { return tracker_; }

  // Per-delivered-packet callback (seq, payload bytes), for app layers.
  void set_on_deliver(std::function<void(SeqNo, std::uint32_t)> cb) {
    on_deliver_ = std::move(cb);
  }

 private:
  void send_feedback(bool triggered);
  void arm_regular_feedback();
  double data_rate_estimate() const;

  Env& env_;
  PacketSink& sink_;
  ReceiverConfig cfg_;

  SeqTracker tracker_;
  PathMonitor rate_monitor_;
  EnergyBudgetController energy_ctl_;
  RateController controller_;

  std::vector<SeqNo> snack_scratch_;  // reused per feedback; no realloc

  bool running_ = false;
  TimerId feedback_timer_ = 0;
  bool feedback_armed_ = false;
  double last_feedback_time_ = -1e18;
  double last_data_time_ = -1.0;
  double delivered_bits_ = 0.0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t triggered_acks_ = 0;
  std::uint64_t ack_serial_ = 0;

  std::function<void(SeqNo, std::uint32_t)> on_deliver_;
};

}  // namespace jtp::core
