#include "analytics/bfs.h"

#include <vector>

#include "analytics/frontier.h"

namespace cuckoograph::analytics::bfs {

KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts, std::vector<DenseId>* parents) {
  (void)opts;  // sequential at any budget — see the header contract
  KernelResult result;
  result.per_node.assign(graph.num_nodes(), kUnreached);
  if (parents != nullptr) parents->assign(graph.num_nodes(), kNoParent);

  VisitedBitmap visited(graph.num_nodes());
  Frontier frontier(graph.num_nodes());
  for (const DenseId s : ResolveSources(graph, sources)) {
    visited.Set(s);
    result.per_node[s] = 0.0;
    if (parents != nullptr) (*parents)[s] = s;
    frontier.PushCurrent(s);
    ++result.aggregate;
  }

  double depth = 0.0;
  while (!frontier.CurrentEmpty()) {
    depth += 1.0;
    for (const DenseId u : frontier.Current()) {
      for (const DenseId v : graph.Neighbors(u)) {
        if (!visited.TestAndSet(v)) continue;
        result.per_node[v] = depth;
        if (parents != nullptr) (*parents)[v] = u;
        frontier.PushNext(v);
        ++result.aggregate;
      }
    }
    frontier.Advance();
  }
  return result;
}

}  // namespace cuckoograph::analytics::bfs
