// Local-clustering-coefficient kernel (Figure 16, Section V-E7).
#ifndef CUCKOOGRAPH_ANALYTICS_LCC_H_
#define CUCKOOGRAPH_ANALYTICS_LCC_H_

#include "analytics/kernel.h"

namespace cuckoograph::analytics::lcc {

// per_node[u] = (ordered pairs (v, w) of distinct successors of u with
// edge v->w present) / (deg(u) * (deg(u) - 1)); 0 when deg(u) < 2. Scores
// `sources` (others stay 0), or every vertex when `sources` is empty.
// aggregate = vertices scored.
//
// Vertices are scored in parallel over opts.num_threads lanes — each lane
// writes its own per_node slots and every coefficient is computed by one
// lane, so the scores are bit-identical at any budget.
KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts = {});

}  // namespace cuckoograph::analytics::lcc

#endif  // CUCKOOGRAPH_ANALYTICS_LCC_H_
