#include "latency.h"

#include <algorithm>

namespace perfbench {
namespace {

constexpr uint64_t kSubCount = uint64_t{1} << LatencyHistogram::kSubBits;
// Exponents 0..63 above the exact range, kSubCount buckets each.
constexpr size_t kNumBuckets = kSubCount * (64 - LatencyHistogram::kSubBits + 1);

int Log2(uint64_t v) { return 63 - __builtin_clzll(v); }

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

size_t LatencyHistogram::BucketOf(uint64_t value) {
  if (value < kSubCount) return static_cast<size_t>(value);
  const int shift = Log2(value) - kSubBits;
  const uint64_t sub = (value >> shift) - kSubCount;
  return static_cast<size_t>((shift + 1) * kSubCount + sub);
}

uint64_t LatencyHistogram::BucketLow(size_t bucket) {
  if (bucket < kSubCount) return bucket;
  const int shift = static_cast<int>(bucket / kSubCount) - 1;
  return (kSubCount + bucket % kSubCount) << shift;
}

uint64_t LatencyHistogram::BucketHigh(size_t bucket) {
  if (bucket < kSubCount) return bucket + 1;
  const int shift = static_cast<int>(bucket / kSubCount) - 1;
  return BucketLow(bucket) + (uint64_t{1} << shift);
}

void LatencyHistogram::Record(uint64_t value, uint64_t count) {
  buckets_[BucketOf(value)] += count;
  count_ += count;
  max_ = std::max(max_, value);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [0, count): the fractional position of the quantile among
  // the sorted samples.
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (rank < static_cast<double>(below + n)) {
      const double low = static_cast<double>(BucketLow(i));
      const double high = std::min(static_cast<double>(BucketHigh(i)),
                                   static_cast<double>(max_) + 1);
      const double frac =
          (rank - static_cast<double>(below) + 0.5) / static_cast<double>(n);
      return low + (high - low) * frac;
    }
    below += n;
  }
  return static_cast<double>(max_);
}

LatencyHistogram::Summary LatencyHistogram::Summarize() const {
  Summary s;
  s.count = count_;
  s.p50 = Quantile(0.5);
  s.tail = s.p50;
  for (double pct : {99.99, 99.9, 99.0, 90.0}) {
    const double beyond = static_cast<double>(count_) * (100.0 - pct) / 100.0;
    if (beyond >= 10.0 - 1e-9) {
      s.tail_pct = pct;
      s.tail = Quantile(pct / 100.0);
      break;
    }
  }
  return s;
}

}  // namespace perfbench
