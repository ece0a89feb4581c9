// Figure 11: running time of SSSP (Section V-E2).
// Methodology: insert the whole dataset (duplicate arrivals accumulate as
// weight on weighted schemes), snapshot it with weights, run SSSP from
// each of the 10 highest-degree nodes with delta-stepping over the
// --threads budget. Schemes without Capabilities().weighted
// cannot serve the weighted snapshot and skip the cell. Distances are
// oracle-checked exactly: the fixed point is unique, whatever the path.
#include "analytics/sssp.h"
#include "analytics_bench_util.h"

int main(int argc, char** argv) {
  using namespace cuckoograph;
  bench::AnalyticsFigureSpec spec;
  spec.experiment = "fig11";
  spec.title = "SSSP (x10 sources) running time (V-E2)";
  spec.subgraph_nodes = 100;
  spec.subgraph_only = false;  // whole dataset is inserted (Section V-E2)
  spec.needs_weights = true;
  spec.tolerance = 0.0;
  spec.kernel = [](const analytics::CsrSnapshot& graph,
                   const std::vector<NodeId>& nodes,
                   const analytics::KernelOptions& opts) {
    const size_t sources = nodes.size() < 10 ? nodes.size() : 10;
    analytics::KernelResult combined;
    for (size_t s = 0; s < sources; ++s) {
      analytics::KernelResult run =
          analytics::sssp::Run(graph, Span<const NodeId>(&nodes[s], 1), opts);
      combined.aggregate += run.aggregate;
      combined.per_node = std::move(run.per_node);
    }
    return combined;
  };
  return bench::RunAnalyticsFigure(argc, argv, spec);
}
