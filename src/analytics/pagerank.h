// PageRank kernel (Figure 14, Section V-E5).
#ifndef CUCKOOGRAPH_ANALYTICS_PAGERANK_H_
#define CUCKOOGRAPH_ANALYTICS_PAGERANK_H_

#include <cstddef>

#include "analytics/kernel.h"

namespace cuckoograph::analytics::pagerank {

// Power iteration with uniform teleport and dangling mass redistributed
// uniformly. per_node = score (sums to 1), aggregate = iterations run.
// Sequential (docs/PERFORMANCE.md records why no parallel PageRank is
// kept).
KernelResult RunIterations(const CsrSnapshot& graph, size_t iterations,
                           double damping = 0.85);

// The figure's configuration: 100 iterations, damping 0.85. `sources` is
// ignored — PageRank scores the whole snapshot — and so are the options:
// the kernel runs sequentially at any budget.
KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts = {});

}  // namespace cuckoograph::analytics::pagerank

#endif  // CUCKOOGRAPH_ANALYTICS_PAGERANK_H_
