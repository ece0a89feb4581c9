// perfbench: the repository benchmark. One binary runs one workload per
// invocation and prints every metric by name and unit; the last line of
// standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the workload's
// per-layer metrics plus the tracing overhead of each end-to-end metric.
// perfbench/run.py builds it, adds the machine half of the environment
// block and reports the per-layer metrics other workloads measure as 0.
//
//   perfbench --workload ingest|served|durable|analytics --seed N
//             --seconds S --trace 0|1 --data-dir DIR
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "core/internal/simd_probe.h"
#include "workload.h"

namespace perfbench {
namespace {

void PrintJsonNumber(double v) {
  // Full precision: values are compared across runs as measured.
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

void PrintMetrics(const std::map<std::string, Metric>& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintJsonNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}");
}

void PrintHuman(const char* kind, const std::map<std::string, Metric>& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %s = %.6g %s\n", kind, name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void PrintBuildInfo() {
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
  std::printf(
      "build: {\"compiler\": \"%s %s\", \"build_type\": \"%s\", "
      "\"simd_probe\": \"%s\"}\n",
      compiler, __VERSION__, PERFBENCH_BUILD_TYPE,
      cuckoograph::internal::ProbeBackendName());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|served|durable|analytics"
               " --seed N --seconds S --trace 0|1 --data-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      return Usage();
    }
  }
  Results (*run)(const RunArgs&, Tracer*) = nullptr;
  if (args.workload == "ingest") run = RunIngest;
  if (args.workload == "served") run = RunServed;
  if (args.workload == "durable") run = RunDurable;
  if (args.workload == "analytics") run = RunAnalytics;
  if (run == nullptr || args.data_dir.empty() || args.seconds <= 0) {
    return Usage();
  }
  PrintBuildInfo();
  std::fflush(stdout);

  Results plain, traced;
  Tracer tracer(1u << 18);
  try {
    plain = run(args, nullptr);
    if (trace) traced = run(args, &tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed = plain.failed + traced.failed;
  PrintHuman("end_to_end", plain.end_to_end);
  std::printf("end_to_end failed_frac = %.6g\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0);

  std::map<std::string, Metric> reported = plain.end_to_end;
  if (trace) {
    reported = traced.per_layer;
    for (const auto& [name, m] : plain.end_to_end) {
      const auto it = traced.end_to_end.find(name);
      if (it == traced.end_to_end.end()) continue;
      reported["trace_overhead." + name] =
          Metric{it->second.value - m.value, m.unit};
    }
    PrintHuman("per_layer", reported);
    const std::string path = args.data_dir + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".jsonl";
    std::printf("trace: %zu spans (%llu dropped) written to %s\n",
                tracer.recorded(),
                static_cast<unsigned long long>(tracer.dropped()),
                tracer.Write(path) ? path.c_str() : "(write failed)");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  PrintMetrics(reported);
  std::printf("}\n");
  return failed == 0 ? 0 : 1;
}
