// Figure 14: running time of PageRank (Section V-E5).
// Methodology: extract the top-degree subgraph, insert it into each scheme,
// snapshot it, iterate 100 times over the CSR. Scores are oracle-checked
// to 1e-9 per node. PageRank runs sequentially at any thread budget
// (--threads still parallelizes the snapshot build).
#include "analytics/pagerank.h"
#include "analytics_bench_util.h"

int main(int argc, char** argv) {
  using namespace cuckoograph;
  bench::AnalyticsFigureSpec spec;
  spec.experiment = "fig14";
  spec.title = "PageRank (100 iterations) running time (V-E5)";
  spec.subgraph_nodes = 1500;
  spec.subgraph_only = true;
  spec.tolerance = 1e-9;
  spec.kernel = [](const analytics::CsrSnapshot& graph,
                   const std::vector<NodeId>& nodes,
                   const analytics::KernelOptions& opts) {
    (void)nodes;  // PageRank scores the whole (already induced) snapshot
    return analytics::pagerank::Run(graph, Span<const NodeId>(), opts);
  };
  return bench::RunAnalyticsFigure(argc, argv, spec);
}
