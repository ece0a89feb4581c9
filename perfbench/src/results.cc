#include <cstdio>

#include "workload.h"

namespace perfbench {

void Results::Check(const char* what, uint64_t n, uint64_t bad) {
  attempted += n;
  failed += bad;
  if (bad != 0) {
    std::printf("MISMATCH %s: %llu of %llu\n", what,
                static_cast<unsigned long long>(bad),
                static_cast<unsigned long long>(n));
  }
}

void Results::Timing(const std::string& name, const LatencyHistogram& h,
                     const char* unit, double ns_per_unit) {
  const LatencyHistogram::Summary s = h.Summarize();
  std::printf(
      "timing %s: p50=%.4g p90=%.4g p99=%.4g p%g=%.4g max=%.4g %s n=%llu\n",
      name.c_str(), s.p50 / ns_per_unit, h.Quantile(0.9) / ns_per_unit,
      h.Quantile(0.99) / ns_per_unit, s.tail_pct, s.tail / ns_per_unit,
      static_cast<double>(h.max()) / ns_per_unit, unit,
      static_cast<unsigned long long>(s.count));
}

void Results::Note(const std::string& text) {
  std::printf("note %s\n", text.c_str());
}

}  // namespace perfbench
