// The polymorphic transport contract every protocol under test implements.
//
// A transport is a (sender, receiver) endpoint pair with one shared
// lifecycle — start / stop / finished / completion callback — and one
// shared counter vocabulary (delivered bits/packets, waived packets, data
// sent, source retransmissions, ACKs sent). Everything above the endpoints
// (Network wiring, FlowManager, metrics, benches) talks only to this
// interface; which concrete protocol sits behind a flow is decided once,
// at attachment time, by net::make_endpoints' switch over Proto.
//
// Hot-path note: on_data/on_ack become virtual calls here. They were
// already dispatched through std::function handlers per packet, so the
// added cost is one indirect call; bench/micro_perf measures it
// (BM_TransportOnData{Direct,Virtual}).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/packet.h"

namespace jtp::core {

// The one protocol enum (paper §6.1); the single source of truth for
// which transport a flow runs (the exp and net layers alias it).
//   kJtp — the full protocol;
//   kJnc — JTP with in-network caching disabled (Fig. 4);
//   kTcp — rate-based TCP-SACK;
//   kAtp — ATP-like explicit-rate protocol;
//   kJtpDr — JTP whose PI²/MD available-rate input Ā is the sender-side
//            delivery-rate estimate (core/rate_sample.h) instead of the
//            path's per-hop idle-rate stamps (core/jtp_dr.h).
//   kBbr — BBR-style model-based pacing over the TCP-SACK feedback
//          channel (baselines/bbr.h).
enum class Proto : std::uint8_t { kJtp, kJnc, kTcp, kAtp, kJtpDr, kBbr };

// Every protocol, in enum order: what "all protocols" means to the
// parser, the sweeps and the parity tests.
inline constexpr std::array<Proto, 6> kAllProtos{
    Proto::kJtp, Proto::kJnc, Proto::kTcp, Proto::kAtp, Proto::kJtpDr,
    Proto::kBbr};

// Canonical lowercase CLI name ("jtp", "jnc", "tcp", "atp", "jtp_dr",
// "bbr").
std::string proto_name(Proto p);

// Inverse of proto_name (plus the legacy "jtp-dr" spelling); nullopt on
// an unknown name.
std::optional<Proto> parse_proto(std::string_view name);

// Source side: paces data packets and reacts to ACKs.
class TransportSender {
 public:
  virtual ~TransportSender() = default;

  // Starts a bulk transfer of `total_packets` (0 = unbounded/long-lived).
  virtual void start(std::uint64_t total_packets) = 0;
  virtual void stop() = 0;

  // Called by the node when an ACK for this flow reaches the source.
  virtual void on_ack(const Packet& ack) = 0;

  // True once a bounded transfer is fully acknowledged.
  virtual bool finished() const = 0;
  virtual void set_on_complete(std::function<void()> cb) = 0;

  // --- counters ---
  virtual std::uint64_t data_packets_sent() const = 0;
  virtual std::uint64_t source_retransmissions() const = 0;
};

// Destination side: consumes data packets and emits feedback.
class TransportReceiver {
 public:
  virtual ~TransportReceiver() = default;

  // Receivers with no feedback machinery of their own (e.g. TCP's
  // pure-reactive ACKing) keep these as no-ops.
  virtual void start() = 0;
  virtual void stop() = 0;

  // Called by the node when a data packet of this flow arrives.
  virtual void on_data(const Packet& p) = 0;

  // --- counters ---
  virtual double delivered_payload_bits() const = 0;
  virtual std::uint64_t delivered_packets() const = 0;
  // Packets the receiver's loss tolerance allowed it to give up on; only
  // adjustable-reliability transports have a non-zero notion of this.
  virtual std::uint64_t waived_packets() const { return 0; }
  virtual std::uint64_t acks_sent() const = 0;
};

}  // namespace jtp::core
