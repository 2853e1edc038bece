// Scale sweep: control-plane and data-plane cost vs network size, per
// MAC discipline.
//
// Runs the "scale" preset — a large connected random field with a
// many-flow fan-in workload (k senders converging on node 0) — at
// n = 100/400 (quick) or 100/400/1000 (--full), once per registered CLI
// MAC (classic TDMA, spatial-reuse TDMA, CSMA/CA; --scenario mac=...
// collapses the sweep), and reports, per size: delivered packets,
// delivery and event rate per wall-clock second, the MAC's slot-reuse
// figures (colors = slots per frame, reuse = n/colors), routing work,
// and the pool high-water marks that pin the zero-allocation claim at
// scale. The headline contrast: classic TDMA throughput collapses as
// 1/(n·slot) while spatial reuse holds the frame at the interference
// chromatic bound, so aggregate delivery keeps growing with field area.
//
// A second leg re-runs every MAC under 1 m/s random waypoint (the
// scale_mobile preset) and reports the routing view's churn cost: every
// changed topology generation invalidates the cached rows, so rows_built
// tracks (nodes on live paths) x (snapshots that saw a move). Add
// speed=1 via --scenario to make the *main* sweep mobile instead (the
// extra leg then drops out), or workload=on_off,transfer=50 for bursty
// sources.
//
// Wall-clock columns are machine-dependent, so this bench is excluded
// from the committed-baseline suite (like micro_perf). --deterministic
// drops those columns — and the shard-count-dependent diagnostics
// (total events, per-shard routing row stats, pool high-waters) —
// leaving a byte-stable CSV that CI diffs across --jobs AND --shards
// values: the sharded event loop must not change a single result bit.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"

using namespace jtp;

namespace {

struct ScaleRun {
  double wall_s = 0.0;
  double events = 0.0;
  double delivered = 0.0;
  double transmissions = 0.0;
  double queue_drops = 0.0;
  double attempt_drops = 0.0;
  double cache_rtx = 0.0;
  double colors = 0.0;
  double reuse = 1.0;
  double refreshes = 0.0;
  double snapshots = 0.0;
  double jain = 0.0;
  double done = 0.0;
  double p99_s = 0.0;
  double rows_built = 0.0;
  double row_reuses = 0.0;
  double event_pool_hw = 0.0;
  double packet_pool_hw = 0.0;
};

ScaleRun one_run(exp::ScenarioSpec spec, std::size_t n, std::uint64_t seed,
                 double duration) {
  spec.net_size = n;
  spec.seed = seed;
  const auto t0 = std::chrono::steady_clock::now();
  auto s = exp::build(spec);
  s.network->run_until(duration);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  const auto m = s.flows->collect(duration);
  const auto& rs = s.network->routing().stats();
  const auto ms = s.network->mac_fabric().stats();
  ScaleRun r;
  r.wall_s = wall.count();
  r.events = static_cast<double>(s.network->total_events_executed());
  r.delivered = static_cast<double>(m.delivered_packets);
  r.transmissions = static_cast<double>(m.transmissions);
  r.queue_drops = static_cast<double>(m.queue_drops);
  r.attempt_drops = static_cast<double>(m.attempt_drops);
  r.cache_rtx = static_cast<double>(m.cache_retransmissions);
  r.colors = static_cast<double>(ms.colors_used);
  r.reuse = ms.reuse_factor;
  r.jain = m.jain_fairness;
  r.done = static_cast<double>(m.flows_completed);
  r.p99_s = m.p99_completion_s;
  r.refreshes = static_cast<double>(rs.refreshes);
  r.snapshots = static_cast<double>(rs.snapshots);
  r.rows_built = static_cast<double>(rs.rows_built);
  r.row_reuses = static_cast<double>(rs.row_reuses);
  r.event_pool_hw =
      static_cast<double>(s.network->simulator().event_pool_stats().high_water);
  r.packet_pool_hw =
      static_cast<double>(s.network->packet_pool().stats().high_water);
  return r;
}

sim::Summary summarize(const std::vector<ScaleRun>& runs,
                       double ScaleRun::*field) {
  sim::Summary s;
  for (const auto& r : runs) s.add(r.*field);
  return s;
}

double mean_of(const std::vector<ScaleRun>& runs, double ScaleRun::*field) {
  return summarize(runs, field).mean();
}

}  // namespace

int main(int argc, char** argv) {
  // --deterministic is ours, not bench_util's: filter it out before the
  // strict flag parser sees it (micro_perf does the same split for the
  // benchmark library's flags).
  bool deterministic = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--deterministic") == 0) {
      deterministic = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  const auto opt =
      bench::parse_options(static_cast<int>(args.size()), args.data());
  const std::size_t n_runs = opt.pick_runs(1, 3);
  const double duration = opt.pick_duration(60.0, 300.0);

  auto base = exp::preset("scale");
  bench::apply_scenario(opt, base);
  base.proto = opt.proto_or(base.proto);
  if (opt.shards) base.shards = *opt.shards;
  const auto sizes = bench::sweep_or<std::size_t>(
      opt, "net_size", base.net_size,
      opt.full ? std::vector<std::size_t>{100, 400, 1000}
               : std::vector<std::size_t>{100, 400});
  const auto macs = bench::sweep_or<mac::Mac>(
      opt, "mac", base.mac,
      {mac::Mac::kTdma, mac::Mac::kTdmaReuse, mac::Mac::kCsma});

  std::printf("=== Scale sweep: cost vs network size, per MAC ===\n");
  std::printf("%s, %.0f s simulated, %zu run(s)\n\n",
              exp::to_string(base).c_str(), duration, n_runs);

  for (const mac::Mac m : macs) {
    auto spec = base;
    spec.mac = m;
    // Every MAC shards now — CSMA runs per-strip carrier domains coupled
    // through boundary mirrors, byte-identical to the shared-carrier loop.

    // Deterministic mode keeps only shard-count-invariant results: what
    // the simulation computed, never how the work was split (per-shard
    // control-plane replicas skew event totals, row stats and pool
    // high-waters, all of which stay visible in the normal mode).
    std::vector<sim::Column> cols{{"net_size", 0}};
    if (!deterministic) cols.push_back({"wall_s", 2, true});
    cols.push_back({"pkts", 0});
    if (!deterministic) {
      cols.push_back({"pkts_per_wall_s", 0});
      cols.push_back({"kevt_per_wall_s", 0});
    }
    for (const auto& c : std::vector<sim::Column>{{"xmits", 0},
                                                  {"queue_drops", 0},
                                                  {"attempt_drops", 0},
                                                  {"cache_rtx", 0},
                                                  {"colors", 0},
                                                  {"reuse", 2},
                                                  {"refreshes", 0},
                                                  {"snapshots", 0},
                                                  // per-flow distribution
                                                  // metrics: K-invariant
                                                  // (pure functions of
                                                  // per-flow counters), so
                                                  // they stay in the
                                                  // --deterministic set
                                                  {"jain", 3},
                                                  {"done", 1},
                                                  {"p99_done_s", 1}})
      cols.push_back(c);
    if (!deterministic)
      for (const auto& c : std::vector<sim::Column>{{"rows_built", 0},
                                                    {"row_reuses", 0},
                                                    {"ev_pool_hw", 0},
                                                    {"pkt_pool_hw", 0}})
        cols.push_back(c);
    auto rep = bench::make_report(opt, "mac=" + mac::mac_name(m),
                                  std::move(cols), 16, mac::mac_name(m));
    rep.begin();

    for (const std::size_t n : sizes) {
      const auto runs = exp::run_seeds_as(
          n_runs, opt.seed,
          [&](std::uint64_t s) { return one_run(spec, n, s, duration); },
          opt.jobs);
      double wall = 0.0, pkts = 0.0, events = 0.0;
      for (const auto& r : runs) {
        wall += r.wall_s;
        pkts += r.delivered;
        events += r.events;
      }
      std::vector<sim::Cell> row{static_cast<double>(n)};
      if (!deterministic) {
        const auto ws = summarize(runs, &ScaleRun::wall_s);
        row.push_back(sim::Cell(ws.mean(), ws.ci95_halfwidth()));
      }
      row.push_back(mean_of(runs, &ScaleRun::delivered));
      if (!deterministic) {
        row.push_back(wall > 0 ? pkts / wall : 0.0);
        row.push_back(wall > 0 ? events / wall / 1e3 : 0.0);
      }
      row.push_back(mean_of(runs, &ScaleRun::transmissions));
      row.push_back(mean_of(runs, &ScaleRun::queue_drops));
      row.push_back(mean_of(runs, &ScaleRun::attempt_drops));
      row.push_back(mean_of(runs, &ScaleRun::cache_rtx));
      row.push_back(mean_of(runs, &ScaleRun::colors));
      row.push_back(mean_of(runs, &ScaleRun::reuse));
      row.push_back(mean_of(runs, &ScaleRun::refreshes));
      row.push_back(mean_of(runs, &ScaleRun::snapshots));
      row.push_back(mean_of(runs, &ScaleRun::jain));
      row.push_back(mean_of(runs, &ScaleRun::done));
      row.push_back(mean_of(runs, &ScaleRun::p99_s));
      if (!deterministic) {
        row.push_back(mean_of(runs, &ScaleRun::rows_built));
        row.push_back(mean_of(runs, &ScaleRun::row_reuses));
        row.push_back(mean_of(runs, &ScaleRun::event_pool_hw));
        row.push_back(mean_of(runs, &ScaleRun::packet_pool_hw));
      }
      rep.row(row);
    }
    bench::finish_report(rep);
    std::printf("\n");
  }

  // Mobile leg: the same field under 1 m/s random waypoint (the
  // scale_mobile preset), one report per MAC, sharded like the static
  // legs (per-shard trajectory replicas + epoch-barrier migration).
  // rows_built depends on which rows each shard's replica has cached —
  // how the work was split, not what the run computed — so it sits with
  // the other K-dependent diagnostics outside the --deterministic CSV.
  // Skipped when the base sweep is already mobile (speed=... given via
  // --scenario): the static legs above then carry the churn, and this
  // would duplicate them.
  if (base.speed_mps == 0.0) {
    for (const mac::Mac m : macs) {
      auto spec = base;
      spec.mac = m;
      spec.speed_mps = 1.0;
      std::vector<sim::Column> cols{{"net_size", 0}};
      if (!deterministic) cols.push_back({"wall_s", 2, true});
      cols.push_back({"pkts", 0});
      for (const auto& c : std::vector<sim::Column>{{"xmits", 0},
                                                    {"refreshes", 0},
                                                    {"snapshots", 0},
                                                    {"jain", 3},
                                                    {"done", 1},
                                                    {"p99_done_s", 1}})
        cols.push_back(c);
      if (!deterministic) cols.push_back({"rows_built", 0});
      auto rep = bench::make_report(opt, "mobile mac=" + mac::mac_name(m),
                                    std::move(cols), 16,
                                    "mobile_" + mac::mac_name(m));
      rep.begin();
      for (const std::size_t n : sizes) {
        const auto runs = exp::run_seeds_as(
            n_runs, opt.seed,
            [&](std::uint64_t s) { return one_run(spec, n, s, duration); },
            opt.jobs);
        std::vector<sim::Cell> row{static_cast<double>(n)};
        if (!deterministic) {
          const auto ws = summarize(runs, &ScaleRun::wall_s);
          row.push_back(sim::Cell(ws.mean(), ws.ci95_halfwidth()));
        }
        row.push_back(mean_of(runs, &ScaleRun::delivered));
        row.push_back(mean_of(runs, &ScaleRun::transmissions));
        row.push_back(mean_of(runs, &ScaleRun::refreshes));
        row.push_back(mean_of(runs, &ScaleRun::snapshots));
        row.push_back(mean_of(runs, &ScaleRun::jain));
        row.push_back(mean_of(runs, &ScaleRun::done));
        row.push_back(mean_of(runs, &ScaleRun::p99_s));
        if (!deterministic)
          row.push_back(mean_of(runs, &ScaleRun::rows_built));
        rep.row(row);
      }
      bench::finish_report(rep);
      std::printf("\n");
    }
  }

  std::printf(
      "expected shape: under mac=tdma, colors == n and per-flow delivery\n"
      "collapses as 1/(n*slot); under mac=tdma_reuse, colors tracks local\n"
      "density (reuse = n/colors grows with n), so aggregate pkts keeps\n"
      "growing with field area. rows_built stays near (sources on live\n"
      "paths) x (snapshots); the pool high-water marks grow with flows,\n"
      "not with net_size. In the mobile leg every refresh sees a moved\n"
      "field, so rows_built grows with the refresh count rather than\n"
      "staying flat.\n");
  return 0;
}
