// Shared helpers for protocol endpoint tests: a capturing PacketSink, a
// simulator-backed Env, and a deliver hook for raw-MAC tests.
#pragma once

#include <utility>
#include <vector>

#include "core/env.h"
#include "core/packet.h"
#include "core/packet_pool.h"
#include "core/types.h"
#include "mac/mac.h"
#include "net/sim_env.h"
#include "sim/simulator.h"

namespace jtp::testing {

// Records everything an endpoint hands to the stack. Handles are
// unwrapped into plain Packet values so tests can inspect them after the
// pool slot has been recycled.
class CaptureSink final : public core::PacketSink {
 public:
  void send(core::PacketPtr p) override { sent.push_back(std::move(*p)); }

  std::size_t data_count() const {
    std::size_t n = 0;
    for (const auto& p : sent)
      if (p.is_data()) ++n;
    return n;
  }
  std::size_t ack_count() const {
    std::size_t n = 0;
    for (const auto& p : sent)
      if (p.is_ack()) ++n;
    return n;
  }

  std::vector<core::Packet> sent;
};

// Bundles a simulator and its Env adapter. The pool is declared first:
// pending events may hold packet handles that release into it on
// simulator destruction.
struct SimHarness {
  core::PacketPool pool;
  sim::Simulator sim;
  net::SimEnv env{sim, pool};
  CaptureSink sink;
};

// For land(): a delivery the test does not inspect is freed on landing.
inline void discard(core::PacketPtr&&, core::NodeId, core::NodeId) {}

// A MAC deliver hook for tests that run MACs without a Network: calls
// f(packet, from, to) when the packet lands, `delay_s` after the MAC
// reports the success. Like Network, it leaves the sender's charges to
// the MAC; unlike Network, it charges the receiver nothing.
template <typename F>
mac::DeliverHook land(sim::Simulator& sim, F f) {
  return [&sim, f](double delay_s, core::PacketPtr&& p, core::NodeId from,
                   core::NodeId to) {
    sim.schedule(delay_s, [f, p = std::move(p), from, to]() mutable {
      f(std::move(p), from, to);
    });
  };
}

}  // namespace jtp::testing
