// Statistics utilities: pool occupancy counters, streaming summaries,
// confidence intervals, and time series for traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.h"

namespace jtp::sim {

// Occupancy accounting shared by the hot-path freelist pools (event
// slots, SmallFn spill blocks, packet slots). `high_water` is the proof
// obligation for the zero-allocation claim: once a workload's working
// set is pooled, `heap_allocs` and `high_water` stop moving while
// `reuses` keeps counting — a growing `heap_allocs` under steady load
// means some path still allocates.
struct PoolStats {
  std::size_t capacity = 0;    // objects ever created by the pool
  std::size_t in_use = 0;      // currently handed out
  std::size_t high_water = 0;  // max simultaneous in_use
  std::uint64_t reuses = 0;       // acquisitions served from the freelist
  std::uint64_t heap_allocs = 0;  // acquisitions that had to allocate
  // Requests too large for the pool's block size, served by plain
  // operator new (must stay zero in steady state).
  std::uint64_t oversize_allocs = 0;
};

// Streaming mean/variance via Welford's algorithm.
class Summary {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Half-width of the 95% confidence interval of the mean (Student t).
  double ci95_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// (time, value) series for plots/traces; supports windowed rate queries.
class TimeSeries {
 public:
  void add(Time t, double v) { points_.push_back({t, v}); }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  struct Point {
    Time t;
    double v;
  };
  const std::vector<Point>& points() const { return points_; }

  // Sum of values in (t - window, t].
  double sum_in_window(Time t, Time window) const;

  // Piecewise-constant resampling of cumulative-sum rate: events per second
  // over consecutive buckets of width `bucket`.
  std::vector<Point> bucket_rate(Time horizon, Time bucket) const;

 private:
  std::vector<Point> points_;
};

// Student-t 97.5% quantile for n-1 degrees of freedom (two-sided 95% CI).
double t_quantile_975(std::size_t df);

}  // namespace jtp::sim
