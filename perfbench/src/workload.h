// The shared shape of the four workloads: each runs its set-up several
// times (setup_s is the median), measures for the requested time (or for
// its fixed unit of work, when that takes longer), checks every answer
// against an oracle, and returns its metrics by name.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "latency.h"
#include "trace.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // Scratch directory inside the checkout (durable store, span dumps).
  std::string data_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// One workload run: its metrics, detail lines and oracle tally.
struct Results {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  // Counts `n` operations checked, `bad` of which disagreed with the
  // oracle; prints what disagreed.
  void Check(const char* what, uint64_t n, uint64_t bad);
  // Prints "timing <name>: p50=... p<tail>=... n=..." in `unit`, with
  // values recorded in nanoseconds scaled by 1/ns_per_unit.
  void Timing(const std::string& name, const LatencyHistogram& h,
              const char* unit, double ns_per_unit);
  // Prints one free-form detail line.
  void Note(const std::string& text);
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Runs `make` at least kSetupReps times and until kSetupSeconds have
// passed, keeping the last result and reporting the median duration as
// setup_s, so a set-up of a tenth of a second is sampled about ten
// times. Earlier results are destroyed before the next set-up starts so
// memory does not pile up.
constexpr size_t kSetupReps = 3;
constexpr double kSetupSeconds = 1;

template <typename Make>
auto RepeatedSetup(Results* r, Make make) -> decltype(make()) {
  std::vector<double> times;
  double total = 0;
  decltype(make()) result{};
  while (times.size() < kSetupReps || total < kSetupSeconds) {
    result = decltype(make()){};
    const uint64_t t0 = NowNs();
    result = make();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += times.back();
  }
  r->E2E("setup_s", Median(times), "s");
  return result;
}

// Calls `rep()` until `seconds` have passed since the first call, and at
// least `min_reps` times; returns how many calls were made.
template <typename Rep>
int RepeatFor(double seconds, int min_reps, Rep rep) {
  const uint64_t start = NowNs();
  int reps = 0;
  while (reps < min_reps ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    rep();
    ++reps;
  }
  return reps;
}

Results RunIngest(const RunArgs& args, Tracer* tracer);
Results RunServed(const RunArgs& args, Tracer* tracer);
Results RunDurable(const RunArgs& args, Tracer* tracer);
Results RunAnalytics(const RunArgs& args, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
