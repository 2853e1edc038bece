// JTP-DR: the delivery-rate-adaptive JTP variant (Proto::kJtpDr).
//
// Classic JTP's PI²/MD controller runs at the destination and consumes
// the min-available-rate stamp the path writes into data headers. This
// variant keeps the entire eJTP machinery — SNACK recovery, energy
// budgets, fairness back-off, feedback watchdog — but swaps the
// controller's input Ā for a sender-side delivery-rate estimate built
// from per-ACK RateSamples (core/rate_sample.h): every data transmit is
// snapshotted, every fresh ACK's cumulative advance generates a
// bw = min(send_rate, ack_rate) sample, and a windowed max-filter turns
// the samples into Ā.
//
// Implementation is pure composition around the stock EjtpSender: data
// packets pass through a tap sink (transmit snapshots), and each fresh
// ACK has its destination-advertised rate rewritten to the local PI²/MD
// output before the inner sender adopts it. No eJTP code is modified;
// the variant is one case of net::make_endpoints (net/transport.cc),
// sharing jtp's endpoint configs.
#pragma once

#include <cstdint>

#include "core/ejtp_sender.h"
#include "core/rate_controller.h"
#include "core/rate_sample.h"

namespace jtp::core {

struct JtpDrConfig {
  // PI²/MD knobs for the local controller. net::make_endpoints sets
  // delta_pps low (a delivery-collapse guard, ~2% of the node share)
  // rather than classic JTP's 15% headroom target: delivery rate, unlike
  // the path's idle-rate stamp, does not shrink as utilization rises, so
  // a high δ would read normal sharing as congestion.
  RateControllerConfig rate;
  // For the same reason the controller's increase branch needs a
  // convergence point the input itself cannot provide: sending above
  // path capacity leaves the delivery rate pinned at capacity (Ā never
  // drops below δ), so PI² alone would ratchet to the static cap. The
  // controller rate is therefore re-capped every sample at
  // dr_gain × bw-estimate — the same "pace slightly above the measured
  // rate to probe" shape as BBR's probe gain — which makes competing
  // flows converge near their measured shares instead of all pinning at
  // node capacity.
  double dr_gain = 1.25;
  std::uint64_t bw_window_rounds = 10;
  double min_rtt_window_s = 30.0;
};

class JtpDrSender final : public TransportSender {
 public:
  JtpDrSender(Env& env, PacketSink& sink, SenderConfig cfg, JtpDrConfig dr);

  void start(std::uint64_t total_packets) override;
  void stop() override { inner_.stop(); }
  void on_ack(const Packet& ack) override;
  bool finished() const override { return inner_.finished(); }
  void set_on_complete(std::function<void()> cb) override {
    inner_.set_on_complete(std::move(cb));
  }

  std::uint64_t data_packets_sent() const override {
    return inner_.data_packets_sent();
  }
  std::uint64_t source_retransmissions() const override {
    return inner_.source_retransmissions();
  }

  // --- instrumentation ---
  double bw_estimate_pps() const { return bw_.bw_pps(); }
  bool has_bw_estimate() const { return bw_.has_estimate(); }
  double min_rtt_s() const { return rtt_.min_rtt_s(); }
  double controller_rate_pps() const { return ctl_.rate(); }
  std::uint64_t samples_taken() const { return sampler_.samples_taken(); }
  std::uint64_t delivery_rounds() const { return round_; }
  const EjtpSender& inner() const { return inner_; }

 private:
  // Interposed between the inner sender and the node: sees every data
  // packet at the instant it leaves, which is exactly when the sampler
  // must snapshot (delivered, delivered_time, first_sent_time,
  // app_limited).
  class TapSink final : public PacketSink {
   public:
    explicit TapSink(JtpDrSender& owner, PacketSink& out)
        : owner_(owner), out_(out) {}
    void send(PacketPtr p) override;

   private:
    JtpDrSender& owner_;
    PacketSink& out_;
  };

  void note_sent(SeqNo seq);

  Env& env_;
  JtpDrConfig dr_;
  RateSampler sampler_;
  BandwidthEstimator bw_;
  MinRttTracker rtt_;
  RateController ctl_;
  TapSink tap_;
  EjtpSender inner_;  // last: constructed against tap_

  std::uint64_t total_packets_ = 0;
  SeqNo cum_seen_ = 0;
  std::uint64_t last_serial_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t round_start_delivered_ = 0;
};

}  // namespace jtp::core
