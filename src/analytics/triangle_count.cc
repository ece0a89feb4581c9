#include "analytics/triangle_count.h"

#include <atomic>
#include <vector>

#include "common/thread_pool.h"

namespace cuckoograph::analytics::triangle_count {

namespace {

uint64_t CyclesThrough(const CsrSnapshot& graph, DenseId s) {
  uint64_t cycles = 0;
  for (const DenseId v : graph.Neighbors(s)) {
    if (v == s) continue;
    for (const DenseId w : graph.Neighbors(v)) {
      if (w == s || w == v) continue;
      if (graph.HasEdge(w, s)) ++cycles;
    }
  }
  return cycles;
}

}  // namespace

KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts) {
  KernelResult result;
  result.per_node.assign(graph.num_nodes(), 0.0);
  std::atomic<uint64_t> total{0};
  const auto count_range = [&](Span<const DenseId> anchors, size_t begin,
                               size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) {
      const DenseId s = anchors.empty() ? static_cast<DenseId>(i)
                                        : anchors[i];
      const uint64_t cycles = CyclesThrough(graph, s);
      result.per_node[s] = static_cast<double>(cycles);
      local += cycles;
    }
    total.fetch_add(local, std::memory_order_relaxed);
  };
  if (sources.empty()) {
    BudgetedParallelFor(
        opts.num_threads, opts.grain, 0, graph.num_nodes(),
        [&](size_t begin, size_t end) { count_range({}, begin, end); });
  } else {
    const std::vector<DenseId> resolved = ResolveSources(graph, sources);
    BudgetedParallelFor(opts.num_threads, opts.grain, 0, resolved.size(),
                        [&](size_t begin, size_t end) {
                          count_range(Span<const DenseId>(resolved), begin,
                                      end);
                        });
  }
  result.aggregate = total.load();
  return result;
}

}  // namespace cuckoograph::analytics::triangle_count
