// Log-bucketed latency histogram (HDR-style, no dependency) and the
// percentile summary every timing in the benchmark is reported with:
// the median, the highest percentile that still has at least ten samples
// beyond it, and the sample count.
#ifndef PERFBENCH_LATENCY_H_
#define PERFBENCH_LATENCY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class LatencyHistogram {
 public:
  // 2^kSubBits linear sub-buckets per power of two: bucket width is at
  // most 1/128 of its lower edge, and values below 2^kSubBits are exact.
  static constexpr int kSubBits = 7;

  LatencyHistogram();

  void Record(uint64_t value, uint64_t count = 1);
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }

  // Value at quantile q in [0, 1]. Within a bucket the rank is
  // interpolated linearly, so the estimate moves continuously with the
  // data instead of snapping to bucket edges. 0 when empty.
  double Quantile(double q) const;

  struct Summary {
    double p50 = 0;
    // The highest of 99.99, 99.9, 99, 90 and 50 with at least ten samples
    // above it, and the value there.
    double tail_pct = 50;
    double tail = 0;
    uint64_t count = 0;
  };
  Summary Summarize() const;

 private:
  static size_t BucketOf(uint64_t value);
  static uint64_t BucketLow(size_t bucket);
  static uint64_t BucketHigh(size_t bucket);  // exclusive

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t max_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_H_
