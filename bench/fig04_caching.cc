// Figure 4 (paper §4.1): JTP vs JTP-with-no-caching (JNC).
//
// (a) Energy per delivered application bit vs network size (linear nets).
// (b) Per-node energy on a 7-node linear topology.
//
// Expected shape: the JNC/JTP gap grows with path length (analysis:
// factor 1/(1-p^n)^{H-1}); JTP also spreads energy more evenly across
// mid-path nodes.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/analysis.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/workload.h"

using namespace jtp;

namespace {

exp::RunMetrics one_run(exp::ScenarioSpec spec, std::size_t n,
                        exp::Proto proto, std::uint64_t seed,
                        double duration) {
  spec.seed = seed;
  spec.proto = proto;
  spec.net_size = n;
  auto s = exp::build(spec);
  s.flows->create(0, static_cast<core::NodeId>(n - 1), 0);  // long-lived
  s.network->run_until(duration);
  return s.flows->collect(duration);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::require_proto(opt, exp::Proto::kJtp,
                       "Figure 4 is the JTP-vs-JNC caching comparison");
  const std::size_t n_runs = opt.pick_runs(3, 20);
  const double duration = opt.pick_duration(800.0, 2500.0);

  // Caching-stress regime: deep, frequent bad dwells so the 5-attempt
  // budget is exceeded often (p_bad^5 ≈ 33%) and end-to-end vs in-network
  // recovery genuinely diverge — the regime Fig. 4 is about.
  exp::ScenarioSpec base;
  base.loss_good = 0.10;
  base.loss_bad = 0.80;
  base.bad_fraction = 0.30;
  bench::apply_scenario(opt, base);
  const auto sizes = bench::sweep_or<std::size_t>(
      opt, "net_size", base.net_size, {3, 4, 5, 6, 7, 8, 9});
  // Section (b) reports per-node energy for the 7-node case, or for the
  // sweep's largest size when an override collapsed the sweep.
  const std::size_t b_n =
      std::find(sizes.begin(), sizes.end(), std::size_t{7}) != sizes.end()
          ? 7
          : sizes.back();

  std::printf("=== Figure 4: in-network caching gain (JTP vs JNC) ===\n");
  std::printf("long-lived flow over linear nets, %.0f s, %zu runs\n\n",
              duration, n_runs);

  auto rep = bench::make_report(opt, "(a) energy per delivered bit (uJ/bit)",
                                {{"net_size", 0},
                                 {"jtp_uj_per_bit", 3, true},
                                 {"jnc_uj_per_bit", 3, true},
                                 {"jnc_over_jtp", 3}},
                                16, "a");
  rep.begin();
  // Section (b) reuses the b_n-node runs from this sweep instead of
  // re-simulating them (RunMetrics already carries per-node energy).
  std::vector<exp::RunMetrics> jtp7, jnc7;
  for (std::size_t n : sizes) {
    auto jtp_runs = exp::run_seeds(
        n_runs, opt.seed,
        [&](std::uint64_t s) {
          return one_run(base, n, exp::Proto::kJtp, s, duration);
        },
        opt.jobs);
    auto jnc_runs = exp::run_seeds(
        n_runs, opt.seed,
        [&](std::uint64_t s) {
          return one_run(base, n, exp::Proto::kJnc, s, duration);
        },
        opt.jobs);
    const auto ej = exp::aggregate(jtp_runs, [](const exp::RunMetrics& m) {
      return m.energy_per_bit_uj();
    });
    const auto en = exp::aggregate(jnc_runs, [](const exp::RunMetrics& m) {
      return m.energy_per_bit_uj();
    });
    rep.row({n, ej, en, ej.mean > 0 ? en.mean / ej.mean : 0.0});
    if (n == b_n) {
      jtp7 = std::move(jtp_runs);
      jnc7 = std::move(jnc_runs);
    }
  }
  bench::finish_report(rep);

  std::printf("\n");
  auto repb = bench::make_report(
      opt,
      "(b) per-node energy, " + std::to_string(b_n) +
          "-node linear topology (J)",
      {{"node", 0}, {"jtp_j", 4}, {"jnc_j", 4}}, 12, "b");
  repb.begin();
  {
    std::vector<double> jtp_node(b_n, 0.0), jnc_node(b_n, 0.0);
    for (std::size_t r = 0; r < n_runs; ++r) {
      for (std::size_t i = 0; i < b_n; ++i) {
        jtp_node[i] += jtp7[r].per_node_energy_j[i] / n_runs;
        jnc_node[i] += jnc7[r].per_node_energy_j[i] / n_runs;
      }
    }
    for (std::size_t i = 0; i < b_n; ++i)
      repb.row({i + 1, jtp_node[i], jnc_node[i]});
    bench::finish_report(repb);
    // Mid-path fairness: coefficient of spread across interior nodes.
    auto spread = [b_n](const std::vector<double>& v) {
      double lo = 1e18, hi = 0;
      for (std::size_t i = 1; i + 1 < b_n; ++i) {
        lo = std::min(lo, v[i]);
        hi = std::max(hi, v[i]);
      }
      return hi / lo;
    };
    std::printf("interior max/min spread: jtp %.3f, jnc %.3f "
                "(lower = fairer mid-path allocation)\n",
                spread(jtp_node), spread(jnc_node));
  }

  std::printf("\n--- analytic expectation (eq. 5 vs eq. 6) ---\n");
  std::printf("caching gain 1/(1-p^n)^(H-1), n=5:\n");
  for (double p : {0.6, 0.8})
    std::printf("  p=%.1f: H=3 -> %.3f, H=7 -> %.3f, H=9 -> %.3f\n", p,
                core::caching_gain(3, p, 5), core::caching_gain(7, p, 5),
                core::caching_gain(9, p, 5));
  return 0;
}
