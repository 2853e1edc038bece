// Figure 6 (paper §5.1): the effect of cache size on source
// retransmissions, for several network sizes.
//
// A missing packet can be repaired from a cache only if it survives in
// some cache until the SNACK passes by. Once the cache is large enough to
// hold a feedback period's worth of traffic, source retransmissions drop
// sharply and stay flat — the knee the paper shows.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"

using namespace jtp;

namespace {

exp::Aggregate source_rtx(const exp::ScenarioSpec& base,
                          std::size_t net_size, std::size_t cache,
                          std::uint64_t seed, std::size_t n_runs,
                          double duration, std::size_t jobs) {
  auto runs = exp::run_seeds(
      n_runs, seed,
      [&](std::uint64_t s) {
        auto spec = base;
        spec.seed = s;
        spec.net_size = net_size;
        spec.cache_size_packets = cache;
        auto scenario = exp::build(spec);
        scenario.flows->create(0, static_cast<core::NodeId>(net_size - 1),
                               0);
        scenario.network->run_until(duration);
        return scenario.flows->collect(duration);
      },
      jobs);
  return exp::aggregate(runs, [](const exp::RunMetrics& m) {
    return static_cast<double>(m.source_retransmissions);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::require_proto(opt, exp::Proto::kJtp,
                       "Figure 6 measures JTP's in-network caches");
  const std::size_t n_runs = opt.pick_runs(3, 10);
  const double duration = opt.pick_duration(800.0, 2500.0);

  exp::ScenarioSpec base;
  base.loss_bad = 0.6;
  bench::apply_scenario(opt, base);
  const auto caches = bench::sweep_or<std::size_t>(
      opt, "cache_size", base.cache_size_packets,
      {1, 2, 4, 8, 16, 32, 64, 128});
  const auto sizes = bench::sweep_or<std::size_t>(
      opt, "net_size", base.net_size, {4, 6, 8});

  std::printf("=== Figure 6: effect of cache size on source retransmissions ===\n");
  std::printf("long-lived reliable flow, lossy linear nets, %.0f s, %zu runs\n",
              duration, n_runs);
  std::printf("(TLowerBound=10 s: the knee is expected near rate*T packets)\n\n");

  std::vector<sim::Column> cols{{"cache_size", 0}};
  for (std::size_t n : sizes)
    cols.push_back({"src_rtx_net" + std::to_string(n), 1, true});
  auto rep = bench::make_report(opt, "", std::move(cols), 16);
  rep.begin();
  for (std::size_t c : caches) {
    std::vector<sim::Cell> row{c};
    for (std::size_t n : sizes)
      row.push_back(
          source_rtx(base, n, c, opt.seed, n_runs, duration, opt.jobs));
    rep.row(std::move(row));
  }
  bench::finish_report(rep);
  std::printf("\nexpected shape: source retransmissions drop sharply once "
              "the cache holds a feedback interval of traffic, then flatten.\n");
  return 0;
}
