// BFS kernel (Figure 10, Section V-E1).
#ifndef CUCKOOGRAPH_ANALYTICS_BFS_H_
#define CUCKOOGRAPH_ANALYTICS_BFS_H_

#include <vector>

#include "analytics/kernel.h"

namespace cuckoograph::analytics::bfs {

// parents[] value of vertices outside the BFS tree (sources are their own
// parent).
inline constexpr DenseId kNoParent = ~DenseId{0};

// Multi-source BFS. per_node = hop distance from the nearest source
// (kUnreached for vertices no source reaches), aggregate = vertices
// reached. An empty source set reaches nothing.
//
// A sequential two-slot frontier loop at any opts.num_threads: the
// options are accepted for the uniform kernel surface and ignored
// (docs/PERFORMANCE.md records why no parallel BFS is kept).
//
// `parents`, when non-null, receives a valid BFS tree: parents[s] == s for
// reached sources, otherwise parents[v] is a predecessor of v with
// depth[v] == depth[parent] + 1, and kNoParent for unreached vertices.
// The tests check tree validity, not a particular tree.
KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts = {},
                 std::vector<DenseId>* parents = nullptr);

}  // namespace cuckoograph::analytics::bfs

#endif  // CUCKOOGRAPH_ANALYTICS_BFS_H_
