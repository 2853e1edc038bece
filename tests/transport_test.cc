// Tests for the polymorphic transport layer: the Proto enum helpers, the
// per-protocol hop policy and caching switch, Network::add_flow's unified
// FlowHandle, and the protocol-parity contract — every protocol in
// core::kAllProtos runs the same ScenarioSpec, and the unified accessors
// report exactly what the concrete endpoints' own accessors report.
#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/atp.h"
#include "baselines/bbr.h"
#include "baselines/tcp_sack.h"
#include "core/jtp_dr.h"
#include "core/ejtp_receiver.h"
#include "core/ejtp_sender.h"
#include "core/transport.h"
#include "exp/scenario.h"
#include "exp/workload.h"
#include "net/network.h"
#include "net/transport.h"

namespace jtp {
namespace {

using core::kAllProtos;
using core::parse_proto;
using core::Proto;
using core::proto_name;
using net::HopPolicy;

TEST(Proto, NamesRoundTrip) {
  for (const Proto p : kAllProtos) {
    const auto back = parse_proto(proto_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_EQ(parse_proto("jtp-dr"), Proto::kJtpDr);  // legacy spelling
  EXPECT_FALSE(parse_proto("").has_value());
  EXPECT_FALSE(parse_proto("JTP").has_value());  // names are lowercase
  EXPECT_FALSE(parse_proto("udp").has_value());
}

TEST(Registry, HopPoliciesAndCachingMatchTheProtocols) {
  EXPECT_EQ(net::hop_policy(Proto::kJtp), HopPolicy::kIjtp);
  EXPECT_EQ(net::hop_policy(Proto::kJnc), HopPolicy::kIjtp);
  EXPECT_EQ(net::hop_policy(Proto::kTcp), HopPolicy::kPlain);
  EXPECT_EQ(net::hop_policy(Proto::kAtp), HopPolicy::kRateStamp);
  // The JTP variant keeps full in-network help; BBR rides the plain
  // TCP-style path.
  EXPECT_EQ(net::hop_policy(Proto::kJtpDr), HopPolicy::kIjtp);
  EXPECT_EQ(net::hop_policy(Proto::kBbr), HopPolicy::kPlain);
  // Only JNC forbids in-network caching.
  for (const Proto p : kAllProtos)
    EXPECT_EQ(net::caching_allowed(p), p != Proto::kJnc) << proto_name(p);
}

TEST(FlowTable, DefaultsToIjtpPolicy) {
  net::FlowTable table;
  EXPECT_EQ(table.policy(42), HopPolicy::kIjtp);
  EXPECT_EQ(table.entry(42).sender, nullptr);
  EXPECT_EQ(table.entry(42).receiver, nullptr);
  table.register_flow(42, HopPolicy::kRateStamp, nullptr, nullptr);
  EXPECT_EQ(table.policy(42), HopPolicy::kRateStamp);
  // Ids below and above a registered one stay unregistered.
  EXPECT_EQ(table.policy(41), HopPolicy::kIjtp);
  EXPECT_EQ(table.policy(43), HopPolicy::kIjtp);
}

TEST(FlowTable, DispatchesLocalPacketsToTheFlowsEndpoints) {
  // A data packet addressed to a node reaches its flow's receiver, an ACK
  // its flow's sender: the endpoints add_flow registered, no other flow's.
  exp::ScenarioSpec sc;
  sc.net_size = 3;
  sc.fading = false;
  sc.loss_good = 0.0;
  auto s = exp::build(sc);
  net::Network& net = *s.network;
  const auto a = net.add_flow(Proto::kTcp, 0, 2);
  const auto b = net.add_flow(Proto::kTcp, 0, 2);
  ASSERT_EQ(b.id, a.id + 1);  // ids are dense

  core::Packet data;
  data.type = core::PacketType::kData;
  data.flow = b.id;
  data.src = 0;
  data.dst = 2;
  data.seq = 5;
  net.node(2).handle_delivery(net.packet_pool().make(core::Packet(data)), 1);
  EXPECT_EQ(a.receiver->delivered_packets(), 0u);
  EXPECT_EQ(b.receiver->delivered_packets(), 1u);

  core::Packet ack;
  ack.type = core::PacketType::kAck;
  ack.flow = a.id;
  ack.src = 2;
  ack.dst = 0;
  ack.ack.emplace().cumulative_ack = 3;
  net.node(0).handle_delivery(net.packet_pool().make(core::Packet(ack)), 1);
  EXPECT_EQ(a.sender_as<baselines::TcpSackSender>()->cumulative_ack(), 3u);
  EXPECT_EQ(b.sender_as<baselines::TcpSackSender>()->cumulative_ack(), 0u);

  // A flow id never registered reaches no endpoint.
  data.flow = b.id + 1;
  data.seq = 6;
  net.node(2).handle_delivery(net.packet_pool().make(core::Packet(data)), 1);
  EXPECT_EQ(a.receiver->delivered_packets() + b.receiver->delivered_packets(),
            1u);
}

TEST(AddFlow, RejectsOutOfRangeEndpoints) {
  auto s = exp::build([] {
    exp::ScenarioSpec sc;
    sc.net_size = 3;
    sc.fading = false;
    sc.loss_good = 0.0;
    return sc;
  }());
  EXPECT_THROW(s.network->add_flow(Proto::kJtp, 0, 7),
               std::invalid_argument);
  // No route leads from a node to itself.
  EXPECT_THROW(s.network->add_flow(Proto::kJtp, 1, 1),
               std::invalid_argument);
}

TEST(AddFlow, HandleCarriesIdentityAndEndpoints) {
  exp::ScenarioSpec sc;
  sc.net_size = 3;
  sc.fading = false;
  sc.loss_good = 0.0;
  auto s = exp::build(sc);
  const auto h = s.network->add_flow(Proto::kJtp, 0, 2);
  EXPECT_EQ(h.proto, Proto::kJtp);
  EXPECT_EQ(h.src, 0u);
  EXPECT_EQ(h.dst, 2u);
  EXPECT_GT(h.id, 0u);
  ASSERT_NE(h.sender, nullptr);
  ASSERT_NE(h.receiver, nullptr);
  // Typed accessors resolve to the protocol's concrete endpoints...
  EXPECT_NE(h.sender_as<core::EjtpSender>(), nullptr);
  EXPECT_NE(h.receiver_as<core::EjtpReceiver>(), nullptr);
  // ...and only to them.
  EXPECT_EQ(h.sender_as<baselines::TcpSackSender>(), nullptr);
  EXPECT_EQ(h.receiver_as<baselines::AtpReceiver>(), nullptr);
}

// ---------------------------------------------------------------------------
// Protocol parity: one ScenarioSpec, every transport.
// ---------------------------------------------------------------------------

exp::ScenarioSpec parity_spec(Proto proto) {
  exp::ScenarioSpec sc;
  sc.net_size = 4;
  sc.seed = 4242;  // pinned: these runs must be reproducible
  sc.proto = proto;
  // Residual loss without fading dwells: enough to exercise recovery in
  // every protocol, mild enough that ATP's end-to-end-only repair still
  // completes a bounded transfer within the horizon.
  sc.fading = false;
  sc.loss_good = 0.05;
  sc.workload.kind = exp::WorkloadKind::kEnds;
  sc.workload.n_flows = 1;
  sc.workload.transfer_packets = 40;
  return sc;
}

TEST(ProtocolParity, EveryRegisteredProtoRunsTheSameSpec) {
  for (const Proto proto : kAllProtos) {
    auto s = exp::build(parity_spec(proto));
    s.network->run_until(1500.0);
    const auto& flow = *s.flows->flows().front();
    EXPECT_TRUE(flow.finished()) << proto_name(proto);
    EXPECT_GT(flow.delivered_packets(), 0u) << proto_name(proto);
    const auto m = s.flows->collect(1500.0);
    EXPECT_GT(m.delivered_payload_bits, 0.0) << proto_name(proto);
    EXPECT_GT(m.total_energy_j, 0.0) << proto_name(proto);
  }
}

// The unified FlowHandle accessors must report exactly what the concrete
// endpoints' own accessors report — the refactor moved the dispatch, not
// the numbers.
template <typename Sender, typename Receiver>
void expect_handle_matches_endpoints(const net::FlowHandle& h) {
  const auto* snd = h.sender_as<Sender>();
  const auto* rcv = h.receiver_as<Receiver>();
  ASSERT_NE(snd, nullptr);
  ASSERT_NE(rcv, nullptr);
  EXPECT_EQ(h.finished(), snd->finished());
  EXPECT_EQ(h.data_sent(), snd->data_packets_sent());
  EXPECT_EQ(h.source_rtx(), snd->source_retransmissions());
  EXPECT_DOUBLE_EQ(h.delivered_bits(), rcv->delivered_payload_bits());
  EXPECT_EQ(h.delivered_packets(), rcv->delivered_packets());
  EXPECT_EQ(h.acks_sent(), rcv->acks_sent());
}

TEST(ProtocolParity, JtpHandleMatchesConcreteAccessors) {
  auto s = exp::build(parity_spec(Proto::kJtp));
  s.network->run_until(1500.0);
  const auto& h = *s.flows->flows().front();
  expect_handle_matches_endpoints<core::EjtpSender, core::EjtpReceiver>(h);
  EXPECT_EQ(h.waived_packets(),
            h.receiver_as<core::EjtpReceiver>()->waived_packets());
}

TEST(ProtocolParity, TcpHandleMatchesConcreteAccessors) {
  auto s = exp::build(parity_spec(Proto::kTcp));
  s.network->run_until(1500.0);
  const auto& h = *s.flows->flows().front();
  expect_handle_matches_endpoints<baselines::TcpSackSender,
                                  baselines::TcpSackReceiver>(h);
  EXPECT_EQ(h.waived_packets(), 0u);  // TCP never waives
}

TEST(ProtocolParity, AtpHandleMatchesConcreteAccessors) {
  auto s = exp::build(parity_spec(Proto::kAtp));
  s.network->run_until(1500.0);
  const auto& h = *s.flows->flows().front();
  expect_handle_matches_endpoints<baselines::AtpSender,
                                  baselines::AtpReceiver>(h);
  EXPECT_EQ(h.waived_packets(), 0u);  // ATP never waives
}

// Pinned-seed determinism through the new dispatch path: two identical
// builds produce bit-identical metrics for every protocol.
TEST(ProtocolParity, PinnedSeedIsBitStableForEveryProto) {
  for (const Proto proto : kAllProtos) {
    auto run = [&] {
      auto s = exp::build(parity_spec(proto));
      s.network->run_until(1500.0);
      return s.flows->collect(1500.0);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j) << proto_name(proto);
    EXPECT_DOUBLE_EQ(a.delivered_payload_bits, b.delivered_payload_bits)
        << proto_name(proto);
    EXPECT_EQ(a.delivered_packets, b.delivered_packets) << proto_name(proto);
    EXPECT_EQ(a.data_packets_sent, b.data_packets_sent) << proto_name(proto);
    EXPECT_EQ(a.acks_sent, b.acks_sent) << proto_name(proto);
    EXPECT_EQ(a.transmissions, b.transmissions) << proto_name(proto);
  }
}

// --- the delivery-rate transports -----------------------------------------
//
// kJtpDr (JTP's PI²/MD fed by a sender-side delivery-rate estimate) and
// kBbr (model-based pacing over the TCP-SACK feedback channel) reach the
// network through the same ScenarioSpec -> build() -> Network::add_flow
// entry points as the original four. The tests below pin that the
// endpoints behind the unified FlowHandle are the expected concrete
// types with the expected behavior.

TEST(ExtensionSeam, JtpDrWrapsAnEjtpFlowAndEstimatesBandwidth) {
  auto s = exp::build(parity_spec(Proto::kJtpDr));
  s.network->run_until(1500.0);
  const auto& flow = *s.flows->flows().front();
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.delivered_packets(), 0u);

  // The handle resolves to the wrapper, which exposes both the inner
  // eJTP machinery and the delivery-rate instrumentation.
  const auto* snd = flow.sender_as<core::JtpDrSender>();
  ASSERT_NE(snd, nullptr);
  EXPECT_NE(flow.receiver_as<core::EjtpReceiver>(), nullptr);
  EXPECT_GT(snd->samples_taken(), 0u);
  EXPECT_GT(snd->bw_estimate_pps(), 0.0);
  EXPECT_GT(snd->min_rtt_s(), 0.0);
  EXPECT_GE(snd->delivery_rounds(), 1u);
}

TEST(ExtensionSeam, BbrRunsOverTheTcpSackChannel) {
  auto s = exp::build(parity_spec(Proto::kBbr));
  s.network->run_until(1500.0);
  const auto& flow = *s.flows->flows().front();
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.delivered_packets(), 0u);

  const auto* snd = flow.sender_as<baselines::BbrSender>();
  ASSERT_NE(snd, nullptr);
  EXPECT_NE(flow.receiver_as<baselines::TcpSackReceiver>(), nullptr);
  // A completed 40-packet transfer is more than enough to fill the pipe
  // on a 4-node chain: the model must have left startup behind.
  EXPECT_TRUE(snd->model().filled_pipe());
  EXPECT_NE(snd->model().mode(), baselines::BbrModel::Mode::kStartup);
  EXPECT_GT(snd->model().bw_pps(), 0.0);
}

// --- probe_rtt --------------------------------------------------------------

// Drives the pure model through a queue-inflation episode: the RTT floor
// set early goes a full min_rtt_window_s with every later sample riding
// a standing queue, so the model must drop to the cwnd floor, hold it
// for probe_rtt_duration_s once in-flight drains, adopt the re-measured
// floor and come back to probe_bw.
TEST(BbrModel, ProbeRttFloorsCwndUntilTheFloorRefreshes) {
  baselines::BbrConfig cfg;
  cfg.min_rtt_window_s = 10.0;
  cfg.probe_rtt_duration_s = 0.2;
  cfg.min_cwnd_packets = 4;
  baselines::BbrModel m(cfg);

  double now = 0.0;
  std::uint64_t delivered = 0;
  const auto feed = [&](double bw_pps, double rtt_s,
                        std::uint64_t in_flight) {
    core::RateSample s;
    s.valid = true;
    s.bw_pps = bw_pps;
    s.rtt_s = rtt_s;
    s.delivered = 1;
    ++delivered;
    m.on_sample(s, now, delivered, in_flight);
  };

  // Startup -> drain -> probe_bw: flat bandwidth for full_bw_rounds
  // rounds (each single-delivery sample closes a round here), then one
  // sample with in-flight at the BDP (100 pps x 0.05 s = 5 packets).
  for (int i = 0; i < 5; ++i) {
    feed(100.0, 0.05, 50);
    now += 0.05;
  }
  ASSERT_TRUE(m.filled_pipe());
  feed(100.0, 0.05, 4);
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeBw);
  EXPECT_GT(m.cwnd_packets(), cfg.min_cwnd_packets);

  // A standing queue: every sample for the next window shows 0.25 s.
  // The windowed min self-expires upward, but no sample ever matches the
  // old floor, so the staleness clock keeps running.
  while (now < 10.5) {
    feed(100.0, 0.25, 20);
    EXPECT_EQ(m.probe_rtt_count(), 0u) << "entered early at t=" << now;
    now += 0.5;
  }
  feed(100.0, 0.25, 20);  // > 10 s since the floor was last seen
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeRtt);
  EXPECT_EQ(m.probe_rtt_count(), 1u);
  EXPECT_EQ(m.cwnd_packets(), cfg.min_cwnd_packets);
  EXPECT_DOUBLE_EQ(m.pacing_gain(), 1.0);

  // In-flight still above the floor: the hold clock must not start.
  now += 0.1;
  feed(100.0, 0.25, 10);
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeRtt);

  // Drained to the floor: the hold starts; before it elapses the mode
  // sticks even though the probe already measured a fresh (lower) RTT.
  now += 0.1;
  feed(100.0, 0.06, 4);
  now += 0.1;  // 0.1 s into the 0.2 s hold
  feed(100.0, 0.06, 4);
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeRtt);

  // Hold elapsed: back to probe_bw (pipe was full), cwnd cap restored,
  // and the re-measured floor is the model's min-RTT.
  now += 0.15;
  feed(100.0, 0.06, 4);
  ASSERT_EQ(m.mode(), baselines::BbrModel::Mode::kProbeBw);
  EXPECT_GT(m.cwnd_packets(), cfg.min_cwnd_packets);
  EXPECT_DOUBLE_EQ(m.min_rtt_s(), 0.06);
  EXPECT_EQ(m.probe_rtt_count(), 1u);  // no immediate re-entry
}

}  // namespace
}  // namespace jtp
