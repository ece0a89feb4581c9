// Seeded input generators. Every input the benchmark feeds a layer comes
// from here, derived from the --seed argument only, so one seed always
// yields the same workload and the program under test never sees a
// generator of its own.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace perfbench {

using cuckoograph::Edge;
using cuckoograph::NodeId;
using cuckoograph::SplitMix64;

// Skewed pick in [0, n): the CDF is (k / n)^(1 / alpha), so alpha > 1
// concentrates mass on low ids (the same shape as the repo's served
// workload helpers).
inline NodeId SkewedPick(SplitMix64& rng, NodeId n, double alpha) {
  const double r = std::pow(rng.NextDouble(), alpha);
  const NodeId id = static_cast<NodeId>(r * static_cast<double>(n));
  return id >= n ? n - 1 : id;
}

// Derives an independent stream seed for one purpose of one run.
inline uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  SplitMix64 rng(seed ^ (purpose * 0x9e3779b97f4a7c15ULL));
  return rng.Next();
}

// The power-law arrival stream of the ingest and analytics workloads:
// both endpoints skewed over `vertices` ids.
inline std::vector<Edge> PowerLawStream(uint64_t seed, size_t arrivals,
                                        NodeId vertices, double alpha) {
  SplitMix64 rng(seed);
  std::vector<Edge> edges(arrivals);
  for (Edge& e : edges) {
    e.u = SkewedPick(rng, vertices, alpha);
    e.v = SkewedPick(rng, vertices, alpha);
  }
  return edges;
}

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
