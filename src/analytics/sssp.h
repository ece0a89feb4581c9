// SSSP kernel (Figure 11, Section V-E2), over the snapshot's weights
// array (unit weights when the snapshot carries none — the unweighted
// degenerate case).
#ifndef CUCKOOGRAPH_ANALYTICS_SSSP_H_
#define CUCKOOGRAPH_ANALYTICS_SSSP_H_

#include "analytics/kernel.h"

namespace cuckoograph::analytics::sssp {

// Multi-source shortest paths. per_node = weighted distance from the
// nearest source (kUnreached when unreachable), aggregate = vertices
// reached.
//
// Frontier-parallel delta-stepping with a fixed bucket width of 8 over
// opts.num_threads lanes (budget 1 runs the same code inline): each
// bucket batch relaxes in parallel, racing lanes settle each tentative
// distance with a CAS-min, and the fixed point is the unique
// shortest-distance vector — so distances are exact whatever the lane
// schedule.
KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts = {});

}  // namespace cuckoograph::analytics::sssp

#endif  // CUCKOOGRAPH_ANALYTICS_SSSP_H_
