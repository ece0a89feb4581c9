#include "analytics/pagerank.h"

#include <utility>
#include <vector>

namespace cuckoograph::analytics::pagerank {

KernelResult RunIterations(const CsrSnapshot& graph, size_t iterations,
                           double damping) {
  const size_t n = graph.num_nodes();
  KernelResult result;
  if (n == 0) return result;

  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (size_t iter = 0; iter < iterations; ++iter) {
    double dangling = 0.0;
    for (DenseId u = 0; u < n; ++u) {
      if (graph.Degree(u) == 0) dangling += rank[u];
    }
    const double base =
        (1.0 - damping + damping * dangling) / static_cast<double>(n);
    next.assign(n, base);
    for (DenseId u = 0; u < n; ++u) {
      const size_t degree = graph.Degree(u);
      if (degree == 0) continue;
      const double share = damping * rank[u] / static_cast<double>(degree);
      for (const DenseId v : graph.Neighbors(u)) next[v] += share;
    }
    rank.swap(next);
    ++result.aggregate;
  }
  result.per_node = std::move(rank);
  return result;
}

KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts) {
  (void)sources;
  (void)opts;  // sequential at any budget — see the header contract
  return RunIterations(graph, 100, 0.85);
}

}  // namespace cuckoograph::analytics::pagerank
