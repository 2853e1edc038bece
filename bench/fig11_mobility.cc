// Figure 11 (paper §6.1.2): random topologies with random-waypoint
// mobility at 0.1 / 1 / 5 m/s (the "mobile" ScenarioSpec preset,
// 15 nodes).
//
// (a) energy per delivered bit, (b) goodput, for JTP/ATP/TCP;
// (c) the split between end-to-end (source) retransmissions and locally
//     recovered packets (cache hits) for JTP, normalized by delivered data
//     — showing caches stay useful even while paths churn.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"

using namespace jtp;

namespace {

exp::RunMetrics one_run(exp::ScenarioSpec spec, double speed,
                        exp::Proto proto, std::uint64_t seed,
                        double duration) {
  spec.speed_mps = speed;
  spec.proto = proto;
  spec.seed = seed;
  auto s = exp::build(spec);
  s.network->run_until(duration);
  return s.flows->collect(duration);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const std::size_t n_runs = opt.pick_runs(3, 10);
  const double duration = opt.pick_duration(1000.0, 4000.0);

  auto base = exp::preset("mobile");
  bench::apply_scenario(opt, base);
  const auto protos =
      opt.protos_or({exp::Proto::kJtp, exp::Proto::kAtp, exp::Proto::kTcp});
  const auto speeds =
      bench::sweep_or(opt, "speed", base.speed_mps, {0.1, 1.0, 5.0});

  std::printf("=== Figure 11: mobility (random waypoint, %zu nodes) ===\n",
              base.net_size);
  std::printf("5 random flows, %.0f s, %zu runs\n\n", duration, n_runs);
  std::printf("E/b = energy per delivered bit (uJ/bit)\n");

  std::vector<sim::Column> cols{{"speed_mps", 1}};
  for (const auto p : protos)
    cols.push_back({exp::proto_name(p) + "_uj_per_bit", 1, true});
  for (const auto p : protos)
    cols.push_back({exp::proto_name(p) + "_kbps", 3, true});
  auto rep = bench::make_report(opt, "", std::move(cols), 15);
  rep.begin();

  struct CachePoint {
    double speed;
    exp::Aggregate src_rtx, cache_hits;
  };
  std::vector<CachePoint> cache_points;

  for (double speed : speeds) {
    std::vector<sim::Cell> row{speed};
    std::vector<sim::Cell> goodput_cells;
    for (const auto proto : protos) {
      auto runs = exp::run_seeds(
          n_runs, opt.seed,
          [&](std::uint64_t s) {
            return one_run(base, speed, proto, s, duration);
          },
          opt.jobs);
      row.push_back(exp::aggregate(runs, [](const exp::RunMetrics& m) {
        return m.energy_per_bit_uj();
      }));
      goodput_cells.push_back(
          exp::aggregate(runs, [](const exp::RunMetrics& m) {
            return m.per_flow_goodput_kbps_mean;
          }));
      if (proto == exp::Proto::kJtp) {
        const auto rtx = exp::aggregate(runs, [](const exp::RunMetrics& m) {
          return m.delivered_packets
                     ? static_cast<double>(m.source_retransmissions) /
                           static_cast<double>(m.delivered_packets)
                     : 0.0;
        });
        const auto hits = exp::aggregate(runs, [](const exp::RunMetrics& m) {
          return m.delivered_packets
                     ? static_cast<double>(m.cache_retransmissions) /
                           static_cast<double>(m.delivered_packets)
                     : 0.0;
        });
        cache_points.push_back({speed, rtx, hits});
      }
    }
    row.insert(row.end(), goodput_cells.begin(), goodput_cells.end());
    rep.row(std::move(row));
  }
  bench::finish_report(rep);

  if (!cache_points.empty()) {
    std::printf("\n");
    auto repc = bench::make_report(
        opt, "(c) end-to-end vs locally recovered packets (JTP), normalized "
             "by delivered data",
        {{"speed_mps", 1}, {"source_rtx", 4, true}, {"cache_hits", 4, true}},
        16, "cache");
    repc.begin();
    for (const auto& p : cache_points)
      repc.row({p.speed, p.src_rtx, p.cache_hits});
    bench::finish_report(repc);
  }

  std::printf("\nexpected shape: energy/bit rises with speed for all; jtp "
              "stays lowest; cache hits remain a large share of recoveries "
              "even under mobility.\n");
  return 0;
}
