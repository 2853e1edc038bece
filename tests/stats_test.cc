#include "sim/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace jtp::sim {
namespace {

TEST(Summary, MeanAndVariance) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Summary, SingleValueHasZeroVariance) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Summary, Ci95ShrinksWithSamples) {
  Summary small, large;
  for (int i = 0; i < 5; ++i) small.add(i % 2);
  for (int i = 0; i < 500; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(TQuantile, KnownValues) {
  EXPECT_NEAR(t_quantile_975(1), 12.706, 1e-3);
  EXPECT_NEAR(t_quantile_975(10), 2.228, 1e-3);
  EXPECT_NEAR(t_quantile_975(1000), 1.96, 1e-3);
}

TEST(TimeSeries, WindowSum) {
  TimeSeries ts;
  ts.add(1.0, 1.0);
  ts.add(2.0, 1.0);
  ts.add(3.0, 1.0);
  ts.add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(ts.sum_in_window(3.0, 2.5), 3.0);  // (0.5, 3]
  EXPECT_DOUBLE_EQ(ts.sum_in_window(10.0, 1.0), 1.0);
}

TEST(TimeSeries, BucketRate) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.add(i + 0.5, 1.0);  // 1 event/s
  const auto rate = ts.bucket_rate(10.0, 2.0);
  ASSERT_GE(rate.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(rate[i].v, 1.0, 1e-9);
}

TEST(TimeSeries, BucketRateRejectsBadBucket) {
  TimeSeries ts;
  EXPECT_THROW(ts.bucket_rate(10.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace jtp::sim
