// Figure 10: running time of BFS on the seven datasets (Section V-E1).
// Methodology: insert the whole dataset, snapshot it, then BFS from the
// highest-degree nodes; the cell charges the snapshot build plus the
// traversals. Every cell's depths are oracle-checked exactly. BFS runs
// sequentially at any thread budget (--threads still parallelizes the
// snapshot build).
#include "analytics/bfs.h"
#include "analytics_bench_util.h"

int main(int argc, char** argv) {
  using namespace cuckoograph;
  bench::AnalyticsFigureSpec spec;
  spec.experiment = "fig10";
  spec.title = "BFS running time (V-E1)";
  spec.subgraph_nodes = 5;  // five top-degree BFS roots
  spec.subgraph_only = false;
  spec.tolerance = 0.0;
  spec.kernel = [](const analytics::CsrSnapshot& graph,
                   const std::vector<NodeId>& roots,
                   const analytics::KernelOptions& opts) {
    // Per-root traversals; the oracle sees the last root's depths plus the
    // total visit count across roots.
    analytics::KernelResult combined;
    for (const NodeId root : roots) {
      analytics::KernelResult run =
          analytics::bfs::Run(graph, Span<const NodeId>(&root, 1), opts);
      combined.aggregate += run.aggregate;
      combined.per_node = std::move(run.per_node);
    }
    return combined;
  };
  return bench::RunAnalyticsFigure(argc, argv, spec);
}
