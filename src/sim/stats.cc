#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jtp::sim {

void Summary::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double t_quantile_975(std::size_t df) {
  // Table for small df, asymptote 1.96 beyond.
  static constexpr double table[] = {
      0,     12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228, 2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086, 2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  if (df == 0) return 0.0;
  if (df < std::size(table)) return table[df];
  return 1.96;
}

double Summary::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return t_quantile_975(n_ - 1) * stddev() / std::sqrt(static_cast<double>(n_));
}

double TimeSeries::sum_in_window(Time t, Time window) const {
  double s = 0.0;
  for (auto it = points_.rbegin(); it != points_.rend(); ++it) {
    if (it->t > t) continue;
    if (it->t <= t - window) break;
    s += it->v;
  }
  return s;
}

std::vector<TimeSeries::Point> TimeSeries::bucket_rate(Time horizon,
                                                       Time bucket) const {
  if (bucket <= 0) throw std::invalid_argument("bucket_rate: bucket <= 0");
  std::vector<Point> out;
  const auto n_buckets = static_cast<std::size_t>(horizon / bucket) + 1;
  std::vector<double> sums(n_buckets, 0.0);
  for (const auto& p : points_) {
    if (p.t < 0 || p.t > horizon) continue;
    sums[static_cast<std::size_t>(p.t / bucket)] += p.v;
  }
  out.reserve(n_buckets);
  for (std::size_t i = 0; i < n_buckets; ++i)
    out.push_back({(static_cast<double>(i) + 0.5) * bucket, sums[i] / bucket});
  return out;
}

}  // namespace jtp::sim
