// Declarative scenario specification (paper §6 experiment families).
//
// A ScenarioSpec names everything that defines an experiment substrate —
// topology kind + size, mobility, fading, protocol, cache/queue knobs —
// plus a workload/arrival model, and build() turns it into a ready
// Network + FlowManager. The paper's four families are presets:
//
//   linear   — chain topologies, Gilbert–Elliott links, two competing
//              end-to-end flows (§6.1.1);
//   random   — connected uniform placements, 5 random flows (§6.1.2);
//   mobile   — 15-node random-waypoint fields, 5 random flows (§6.1.2);
//   testbed  — 14 nodes, stable low-loss indoor links, Poisson flow
//              arrivals with 100 KB transfers (Table 2).
//
// Any field combination is valid — mobile chains, random placements with
// Poisson arrivals — so combinations the paper never ran come for free.
// Specs parse from "key=value" strings (see parse_scenario) so every
// bench exposes the full space through --scenario.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/workload.h"
#include "net/network.h"

namespace jtp::exp {

enum class TopologyKind : std::uint8_t { kLinear, kRandom, kGrid };
std::string topology_name(TopologyKind k);

// How flows are attached to the network when the scenario is built.
enum class WorkloadKind : std::uint8_t {
  kManual,       // none: the caller creates flows itself
  kEnds,         // n_flows between the topology's end nodes, alternating
                 // direction, starts staggered by stagger_s
  kRandomPairs,  // n_flows between random distinct endpoints
  kPoisson,      // per-node Poisson arrivals of fixed-size transfers
  kOnOff,        // n_flows bursty sources: each holds one random pair and
                 // fires `transfer`-packet bursts at exponential gaps
                 // (mean burst_gap) within the arrival window
  kFanIn,        // many-flow convergence: `fan_in` distinct random
                 // senders all target node 0 (starts staggered)
};
std::string workload_name(WorkloadKind k);

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kManual;
  std::size_t n_flows = 1;
  std::uint64_t transfer_packets = 0;  // 0 = long-lived; kOnOff burst size
  double start_delay_s = 0.0;          // first start (kEnds/kRandomPairs)
  double stagger_s = 0.0;              // extra delay per flow (kEnds/kFanIn)
  double mean_interarrival_s = 400.0;  // kPoisson, per node
  double arrival_window_s = 1700.0;    // kPoisson/kOnOff: starts in window
  double mean_burst_gap_s = 60.0;      // kOnOff: mean gap between bursts
  std::size_t fan_in = 4;              // kFanIn: senders per sink
  double loss_tolerance = 0.0;         // applied to every created flow
};

struct ScenarioSpec {
  // --- substrate ---
  TopologyKind topology = TopologyKind::kLinear;
  std::size_t net_size = 5;
  std::size_t grid_cols = 7;     // kGrid row width
  double speed_mps = 0.0;        // > 0 => random-waypoint mobility
  bool fading = true;            // Gilbert–Elliott on/off
  // Loss probabilities per state. The paper fixes the bad-state share
  // (10%) and dwell (3 s) but not the pathloss levels; these are chosen
  // so bad dwells genuinely exceed the 5-attempt MAC budget (p^5 ≈ 8%),
  // exercising the end-to-end vs in-network recovery trade-off the
  // evaluation is about.
  double loss_good = 0.05;
  double loss_bad = 0.60;
  double bad_fraction = 0.10;    // share of time in the bad state
  // --- protocol & knobs ---
  Proto proto = Proto::kJtp;
  std::size_t cache_size_packets = 1000;  // Table 1
  std::size_t queue_capacity_packets = 50;
  double slot_duration_s = 0.035;
  double routing_refresh_s = 5.0;
  std::uint64_t seed = 1;
  // Parallel event-loop shards (net::NetworkConfig::shards). Results are
  // byte-identical for every value; > 1 requires speed=0 and mac=tdma or
  // mac=tdma_reuse (net::shard_config_error).
  std::size_t shards = 1;
  // --- MAC discipline ---
  mac::Mac mac = mac::Mac::kTdma;
  // tdma_reuse only: interference range as a multiple of the radio range.
  double reuse_margin = 1.0;
  // csma only: 802.15.4-style contention knobs.
  std::size_t csma_min_be = 3;
  std::size_t csma_max_be = 5;
  std::size_t csma_max_backoffs = 4;
  // --- workload ---
  WorkloadSpec workload;
};

bool operator==(const WorkloadSpec& a, const WorkloadSpec& b);
inline bool operator!=(const WorkloadSpec& a, const WorkloadSpec& b) {
  return !(a == b);
}
bool operator==(const ScenarioSpec& a, const ScenarioSpec& b);
inline bool operator!=(const ScenarioSpec& a, const ScenarioSpec& b) {
  return !(a == b);
}

// The four paper presets ("linear", "random", "mobile", "testbed") plus
// the production-scale tier ("scale": large random fields, many-flow
// fan-in; meant to be swept over net_size 100/400/1000 — see
// bench/scale_sweep.cc). Throws std::invalid_argument on an unknown name.
ScenarioSpec preset(const std::string& name);
std::vector<std::string> preset_names();

// --- the key=value spec language -----------------------------------------
//
// A spec string is a comma-separated token list. The first token may be a
// bare preset name; every other token is key=value. Example:
//
//   "mobile,net_size=25,speed=5,proto=tcp,loss_good=0.1"
//
// Keys mirror the struct fields (topology, net_size, grid_cols, speed,
// fading, loss_good, loss_bad, bad_fraction, proto, cache_size,
// queue_capacity, slot_duration, routing_refresh, seed, shards, mac,
// reuse_margin,
// min_be, max_be, max_backoffs, workload, flows, transfer, start, stagger,
// interarrival, window, burst_gap, fan_in, loss_tolerance).
//
// MAC-family knobs are validated cross-key: reuse_margin differing from
// its default requires mac=tdma_reuse, and the csma knobs require
// mac=csma — a spec that tunes a discipline it does not select is a
// silent no-op the validation turns into a parse error. Likewise
// shards > 1 requires a static field (speed=0) under mac=tdma or
// mac=tdma_reuse: a spec that cannot shard is an error, never a
// silent K = 1 run.

// Applies tokens onto `spec` in order. Returns "" on success or a
// human-readable error (unknown key, malformed value, out-of-range);
// `spec` may be partially updated on error.
std::string apply_scenario_tokens(ScenarioSpec& spec,
                                  const std::string& text);

struct SpecParse {
  ScenarioSpec spec;
  std::string error;  // non-empty => parse failed
  bool ok() const { return error.empty(); }
};

// Parses a spec string starting from defaults (or from the named preset
// when the first token is bare).
SpecParse parse_scenario(const std::string& text);

// Canonical round-trip form: parse_scenario(to_string(s)).spec == s.
std::string to_string(const ScenarioSpec& spec);

// --- building -------------------------------------------------------------

// Node spacing/range used by all scenarios: range below 2× spacing keeps
// chains honest (no hop-skipping).
inline constexpr double kSpacingM = 30.0;
inline constexpr double kRangeM = 40.0;

// Field side for a random scenario of n nodes.
double random_field_side_m(std::size_t n);

// The NetworkConfig a spec implies (caching on/off follows
// net::caching_allowed(spec.proto)). Exposed for benches that need to tweak
// network knobs the spec does not cover before constructing the Network
// themselves.
net::NetworkConfig make_network_config(const ScenarioSpec& spec);

// The spec's topology alone (exposed for bespoke wiring).
phy::Topology make_topology(const ScenarioSpec& spec);

// A built scenario: the network plus its flow manager, with the spec's
// workload already attached (flows start at their scheduled times once
// run_until is called).
struct Scenario {
  std::unique_ptr<net::Network> network;
  std::unique_ptr<FlowManager> flows;
};

// Throws std::invalid_argument on specs that cannot be built (net_size
// < 2, or a spec parse_scenario would reject).
Scenario build(const ScenarioSpec& spec);

}  // namespace jtp::exp
