#include "analytics/lcc.h"

#include <vector>

#include "common/thread_pool.h"

namespace cuckoograph::analytics::lcc {

namespace {

double CoefficientOf(const CsrSnapshot& graph, DenseId u) {
  const Span<const DenseId> neighbors = graph.Neighbors(u);
  const size_t degree = neighbors.size();
  if (degree < 2) return 0.0;
  uint64_t links = 0;
  for (const DenseId v : neighbors) {
    for (const DenseId w : neighbors) {
      if (v != w && graph.HasEdge(v, w)) ++links;
    }
  }
  return static_cast<double>(links) /
         (static_cast<double>(degree) * static_cast<double>(degree - 1));
}

}  // namespace

KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts) {
  KernelResult result;
  result.per_node.assign(graph.num_nodes(), 0.0);
  if (sources.empty()) {
    // Vertex-parallel sweep; per_node writes are disjoint by construction.
    BudgetedParallelFor(opts.num_threads, opts.grain, 0, graph.num_nodes(),
                        [&](size_t begin, size_t end) {
                          for (size_t u = begin; u < end; ++u) {
                            result.per_node[u] =
                                CoefficientOf(graph, static_cast<DenseId>(u));
                          }
                        });
    result.aggregate = graph.num_nodes();
    return result;
  }
  const std::vector<DenseId> resolved = ResolveSources(graph, sources);
  BudgetedParallelFor(opts.num_threads, opts.grain, 0, resolved.size(),
                      [&](size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          result.per_node[resolved[i]] =
                              CoefficientOf(graph, resolved[i]);
                        }
                      });
  result.aggregate = resolved.size();
  return result;
}

}  // namespace cuckoograph::analytics::lcc
