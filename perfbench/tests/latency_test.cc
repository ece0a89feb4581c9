#include "latency.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(LatencyHistogramTest, UniformDistributionPercentiles) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_EQ(h.max(), 100000u);
  // Buckets are at most 1/128 of their value wide.
  EXPECT_NEAR(h.Quantile(0.5), 50000, 50000 / 128.0);
  EXPECT_NEAR(h.Quantile(0.99), 99000, 99000 / 128.0);
  EXPECT_NEAR(h.Quantile(0.999), 99900, 99900 / 128.0);
  EXPECT_LE(h.Quantile(1.0), 100001);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 100; ++v) h.Record(v);
  EXPECT_GE(h.Quantile(0.5), 49);
  EXPECT_LE(h.Quantile(0.5), 51);
}

TEST(LatencyHistogramTest, TailIsHighestPercentileWithTenSamplesBeyond) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  LatencyHistogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 100000u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.99);  // exactly 10 samples beyond
  EXPECT_NEAR(s.tail, 99990, 99990 / 128.0);
  EXPECT_NEAR(s.p50, 50000, 50000 / 128.0);

  LatencyHistogram small;
  for (uint64_t v = 1; v <= 1000; ++v) small.Record(v * 1000);
  s = small.Summarize();
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);  // 1 beyond p99.9, 10 beyond p99
  EXPECT_NEAR(s.tail, 990000, 990000 / 128.0);

  small.Record(2000000);  // 1001 samples: still 10.01 beyond p99
  EXPECT_DOUBLE_EQ(small.Summarize().tail_pct, 99.0);
  LatencyHistogram fewer;
  for (uint64_t v = 1; v <= 999; ++v) fewer.Record(v * 1000);
  EXPECT_DOUBLE_EQ(fewer.Summarize().tail_pct, 90.0);  // 9.99 beyond p99

  LatencyHistogram tiny;
  for (uint64_t v = 1; v <= 15; ++v) tiny.Record(v);
  s = tiny.Summarize();
  EXPECT_DOUBLE_EQ(s.tail_pct, 50);  // too few samples for any tail
  EXPECT_DOUBLE_EQ(s.tail, s.p50);
}

TEST(LatencyHistogramTest, WeightedRecordAndMergeMatchSingleRecords) {
  LatencyHistogram a, b, merged;
  a.Record(1000, 16);
  b.Record(3000, 16);
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), 32u);
  EXPECT_EQ(merged.max(), 3000u);
  EXPECT_NEAR(merged.Quantile(0.25), 1000, 1000 / 128.0);
  EXPECT_NEAR(merged.Quantile(0.75), 3000, 3000 / 64.0);
}

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0);
  EXPECT_EQ(h.Summarize().count, 0u);
}

}  // namespace
}  // namespace perfbench
