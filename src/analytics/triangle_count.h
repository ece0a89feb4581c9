// Triangle-counting kernel (Figure 12, Section V-E3).
#ifndef CUCKOOGRAPH_ANALYTICS_TRIANGLE_COUNT_H_
#define CUCKOOGRAPH_ANALYTICS_TRIANGLE_COUNT_H_

#include "analytics/kernel.h"

namespace cuckoograph::analytics::triangle_count {

// Directed 3-cycles anchored per source: per_node[s] counts the pairs
// (v, w) of distinct vertices with s->v, v->w, and the closing edge w->s
// (probed by binary search over the CSR segment, the snapshot's analogue
// of the paper's edge-query probe). Sweeps every vertex when `sources` is
// empty — each 3-cycle then counts once per member. aggregate = the sum
// over the swept sources.
//
// Sources are anchored across opts.num_threads lanes. Per-source counts
// are integers written disjointly and the aggregate is their exact sum,
// so the result is bit-identical at any budget.
KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts = {});

}  // namespace cuckoograph::analytics::triangle_count

#endif  // CUCKOOGRAPH_ANALYTICS_TRIANGLE_COUNT_H_
