// The analytics kernels' uniform surface. Every kernel (bfs.h ... lcc.h)
// exposes exactly
//
//   KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
//                    const KernelOptions& opts = {});
//
// in its own sub-namespace (analytics::bfs::Run, analytics::sssp::Run, ...)
// so the figure benches and tests drive all seven through one shape.
// `sources` are original node ids; ids absent from the snapshot are
// ignored, and kernels that sweep the whole snapshot (CC, PageRank) accept
// an empty span.
//
// Every kernel has exactly one implementation; KernelOptions is a lane
// budget, never an algorithm switch. Frontier-parallel delta-stepping
// SSSP and the vertex-parallel TC/LCC spread their work over
// opts.num_threads lanes (budget 1 runs the same code inline). BFS and
// PageRank are sequential because that measured fastest (see
// docs/PERFORMANCE.md); CC (Tarjan) and BC (Brandes) because their
// label/score contracts depend on visit order. These four accept the
// options for API uniformity and ignore them. No result depends on the
// budget; tests/parallel_kernels_test.cc checks every kernel against the
// naive models in tests/analytics_reference.h at budgets
// {1, 2, 4, hardware}.
#ifndef CUCKOOGRAPH_ANALYTICS_KERNEL_H_
#define CUCKOOGRAPH_ANALYTICS_KERNEL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "analytics/csr_snapshot.h"
#include "common/span.h"
#include "common/types.h"

namespace cuckoograph::analytics {

// Per-node value of vertices no kernel pass reached (BFS/SSSP distance of
// unreachable vertices).
inline constexpr double kUnreached = std::numeric_limits<double>::infinity();

struct KernelResult {
  // One value per dense snapshot id; the meaning is the kernel's (hop or
  // weighted distance, component id, PageRank score, centrality, LCC,
  // per-source triangle count). Empty only when the snapshot is empty.
  std::vector<double> per_node;
  // Kernel-specific scalar: vertices reached (BFS/SSSP), components (CC),
  // sum of per-source directed 3-cycle counts (TC — a full sweep counts
  // each cycle once per member, i.e. 3x per triangle), pivots used (BC),
  // iterations run (PR), vertices scored (LCC).
  uint64_t aggregate = 0;
};

// Per-call execution options, shared by every kernel.
struct KernelOptions {
  // Lanes a kernel may use; the calling thread counts as one, so
  // num_threads - 1 shared-pool workers join it (BudgetedParallelFor in
  // common/thread_pool.h). 0 is treated as 1.
  size_t num_threads = 1;
  // Minimum vertices/frontier entries per parallel-for chunk — raises the
  // amortization floor on tiny inputs so lane handoff never dominates.
  size_t grain = 256;
};

// The uniform entry-point shape, for registries and bench tables. (BFS
// additionally takes an optional parent-tree out-param; registries bind
// it behind a lambda of this shape.)
using KernelFn = KernelResult (*)(const CsrSnapshot&, Span<const NodeId>,
                                  const KernelOptions&);

// Maps `sources` into dense ids, dropping absentees and duplicates while
// preserving first-occurrence order. Shared by every kernel's prologue.
std::vector<DenseId> ResolveSources(const CsrSnapshot& graph,
                                    Span<const NodeId> sources);

}  // namespace cuckoograph::analytics

#endif  // CUCKOOGRAPH_ANALYTICS_KERNEL_H_
