// Google-benchmark microbenchmarks of the core CuckooGraph operations:
// per-op latency of insert/query/delete/successor iteration at several
// graph sizes, plus the raw BobHash and cuckoo-table primitives. These back
// the per-op numbers quoted in docs/PERFORMANCE.md.
#include <benchmark/benchmark.h>

#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "analytics/bfs.h"
#include "analytics/csr_snapshot.h"
#include "common/bob_hash.h"
#include "common/rng.h"
#include "core/cuckoo_graph.h"
#include "core/internal/simd_probe.h"
#include "core/sharded_cuckoo_graph.h"
#include "core/weighted_cuckoo_graph.h"

namespace cuckoograph {
namespace {

void BM_BobHash(benchmark::State& state) {
  BobHash hash(7);
  uint64_t key = 0x123456789abcdefULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(key));
    ++key;
  }
}
BENCHMARK(BM_BobHash);

std::vector<Edge> MakeWorkload(size_t edges) {
  SplitMix64 rng(11);
  std::vector<Edge> workload;
  workload.reserve(edges);
  for (size_t i = 0; i < edges; ++i) {
    workload.push_back(
        Edge{rng.NextBelow(edges / 8 + 1), rng.NextBelow(edges) + 1});
  }
  return workload;
}

void BM_InsertEdge(benchmark::State& state) {
  const auto workload = MakeWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    CuckooGraph graph;
    state.ResumeTiming();
    for (const Edge& e : workload) {
      benchmark::DoNotOptimize(graph.InsertEdge(e.u, e.v));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_InsertEdge)->Arg(10'000)->Arg(100'000);

void BM_QueryEdge(benchmark::State& state) {
  const auto workload = MakeWorkload(static_cast<size_t>(state.range(0)));
  CuckooGraph graph;
  for (const Edge& e : workload) graph.InsertEdge(e.u, e.v);
  size_t i = 0;
  for (auto _ : state) {
    const Edge& e = workload[i++ % workload.size()];
    benchmark::DoNotOptimize(graph.QueryEdge(e.u, e.v));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryEdge)->Arg(10'000)->Arg(100'000);

void BM_QueryMissingEdge(benchmark::State& state) {
  const auto workload = MakeWorkload(static_cast<size_t>(state.range(0)));
  CuckooGraph graph;
  for (const Edge& e : workload) graph.InsertEdge(e.u, e.v);
  NodeId probe = 1u << 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.QueryEdge(probe, probe + 1));
    ++probe;
  }
}
BENCHMARK(BM_QueryMissingEdge)->Arg(100'000);

void BM_DeleteInsertChurn(benchmark::State& state) {
  const auto workload = MakeWorkload(static_cast<size_t>(state.range(0)));
  CuckooGraph graph;
  for (const Edge& e : workload) graph.InsertEdge(e.u, e.v);
  size_t i = 0;
  for (auto _ : state) {
    const Edge& e = workload[i++ % workload.size()];
    graph.DeleteEdge(e.u, e.v);
    graph.InsertEdge(e.u, e.v);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_DeleteInsertChurn)->Arg(50'000);

// ---- Neighbor-scan guard: the v2 cursor redesign vs the v1 call shape ----
// BM_SuccessorIteration uses the template ForEachNeighbor (inlined callable,
// one virtual Next() per block). BM_SuccessorIterationStdFunction forces the
// callback through std::function — the per-edge type-erased dispatch the v1
// interface imposed — and BM_SuccessorIterationRawCursor drains the cursor
// by hand. The spread between the two is the redesign's win.

void BM_SuccessorIteration(benchmark::State& state) {
  CuckooGraph graph;
  const size_t degree = static_cast<size_t>(state.range(0));
  for (NodeId v = 0; v < degree; ++v) graph.InsertEdge(1, v + 10);
  for (auto _ : state) {
    size_t count = 0;
    graph.ForEachNeighbor(1, [&count](NodeId) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(degree));
}
BENCHMARK(BM_SuccessorIteration)->Arg(6)->Arg(1'000)->Arg(100'000);

void BM_SuccessorIterationStdFunction(benchmark::State& state) {
  CuckooGraph graph;
  const size_t degree = static_cast<size_t>(state.range(0));
  for (NodeId v = 0; v < degree; ++v) graph.InsertEdge(1, v + 10);
  size_t count = 0;
  const std::function<void(NodeId)> fn = [&count](NodeId) { ++count; };
  for (auto _ : state) {
    count = 0;
    graph.ForEachNeighbor(1, fn);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(degree));
}
BENCHMARK(BM_SuccessorIterationStdFunction)->Arg(6)->Arg(1'000)->Arg(100'000);

void BM_SuccessorIterationRawCursor(benchmark::State& state) {
  CuckooGraph graph;
  const size_t degree = static_cast<size_t>(state.range(0));
  for (NodeId v = 0; v < degree; ++v) graph.InsertEdge(1, v + 10);
  for (auto _ : state) {
    size_t count = 0;
    NodeId block[NeighborCursor::kBlockSize];
    auto cursor = graph.Neighbors(1);
    size_t n;
    while ((n = cursor->Next(block, NeighborCursor::kBlockSize)) > 0) {
      count += n;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(degree));
}
BENCHMARK(BM_SuccessorIterationRawCursor)->Arg(6)->Arg(1'000)->Arg(100'000);

void BM_InsertEdgesBatch(benchmark::State& state) {
  const auto workload = MakeWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    CuckooGraph graph;
    state.ResumeTiming();
    benchmark::DoNotOptimize(graph.InsertEdges(workload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_InsertEdgesBatch)->Arg(100'000);

// ---- Snapshot-vs-virtual traversal guard -------------------------------
// The analytics refactor's claim: build a CsrSnapshot once, then traverse
// flat arrays, instead of running the kernel through per-edge virtual
// store calls with hash-set visited state. BM_SnapshotBuild prices the
// materialization; BM_BfsOverCsr vs BM_BfsOverVirtualStore is the payoff
// once the CSR exists.

// Both endpoints drawn from [0, n) at average degree 8, so the giant
// component emerges and a BFS sweeps most of the graph — the regime the
// analytics kernels run in (MakeWorkload's stream is mostly sinks, which
// would measure setup cost instead of traversal).
std::vector<Edge> MakeTraversalWorkload(size_t nodes) {
  SplitMix64 rng(23);
  std::vector<Edge> workload;
  workload.reserve(nodes * 8);
  for (size_t i = 0; i < nodes * 8; ++i) {
    workload.push_back(Edge{rng.NextBelow(nodes), rng.NextBelow(nodes)});
  }
  return workload;
}

void BM_SnapshotBuild(benchmark::State& state) {
  const auto workload =
      MakeTraversalWorkload(static_cast<size_t>(state.range(0)));
  CuckooGraph graph;
  graph.InsertEdges(workload);
  for (auto _ : state) {
    const auto snapshot = analytics::CsrSnapshot::FromStore(graph);
    benchmark::DoNotOptimize(snapshot.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(graph.NumEdges()));
}
BENCHMARK(BM_SnapshotBuild)->Arg(10'000)->Arg(100'000);

// The parallel builder at a given lane count (arg 1), same workload as
// BM_SnapshotBuild — the guard that the thread-pooled build actually
// beats, or at worst matches, the sequential one as cores appear. The
// differential suite proves the outputs byte-identical; this prices them.
void BM_SnapshotBuildParallel(benchmark::State& state) {
  const auto workload =
      MakeTraversalWorkload(static_cast<size_t>(state.range(0)));
  CuckooGraph graph;
  graph.InsertEdges(workload);
  analytics::CsrSnapshot::Options opts;
  opts.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    const auto snapshot = analytics::CsrSnapshot::FromStore(graph, opts);
    benchmark::DoNotOptimize(snapshot.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(graph.NumEdges()));
}
BENCHMARK(BM_SnapshotBuildParallel)
    ->Args({100'000, 2})
    ->Args({100'000, 4});

void BM_BfsOverCsr(benchmark::State& state) {
  const auto workload =
      MakeTraversalWorkload(static_cast<size_t>(state.range(0)));
  CuckooGraph graph;
  graph.InsertEdges(workload);
  const auto snapshot = analytics::CsrSnapshot::FromStore(graph);
  const NodeId root = workload[0].u;
  for (auto _ : state) {
    const auto result =
        analytics::bfs::Run(snapshot, Span<const NodeId>(&root, 1));
    benchmark::DoNotOptimize(result.aggregate);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(graph.NumEdges()));
}
BENCHMARK(BM_BfsOverCsr)->Arg(10'000)->Arg(100'000);

void BM_BfsOverVirtualStore(benchmark::State& state) {
  const auto workload =
      MakeTraversalWorkload(static_cast<size_t>(state.range(0)));
  CuckooGraph graph;
  graph.InsertEdges(workload);
  const NodeId root = workload[0].u;
  for (auto _ : state) {
    // The pre-snapshot shape: cursor walk per vertex, hash-set visited.
    std::unordered_set<NodeId> visited{root};
    std::queue<NodeId> frontier;
    frontier.push(root);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      graph.ForEachNeighbor(u, [&visited, &frontier](NodeId v) {
        if (visited.insert(v).second) frontier.push(v);
      });
    }
    benchmark::DoNotOptimize(visited.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(graph.NumEdges()));
}
BENCHMARK(BM_BfsOverVirtualStore)->Arg(10'000)->Arg(100'000);

// ---- SIMD bucket-probe guard -------------------------------------------
// The selected backend (sse2/neon) against the always-compiled scalar
// reference, at the default bucket width (d = 8) and the Figure 2 maximum
// (d = 32). The spread is the vectorization win the L-CHT/S-CHT FindSlot
// hot path inherits; if the backend is already "scalar" the two series
// coincide.

void FillProbeBytes(std::vector<uint8_t>* bytes) {
  SplitMix64 rng(5);
  for (auto& b : *bytes) b = static_cast<uint8_t>(rng.NextBelow(250) + 1);
}

void BM_ProbeBucketSimd(benchmark::State& state) {
  std::vector<uint8_t> bytes(
      static_cast<size_t>(state.range(0)) + internal::kBytePadding);
  FillProbeBytes(&bytes);
  const size_t count = static_cast<size_t>(state.range(0));
  uint8_t needle = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        internal::MatchByteMask(bytes.data(), count, ++needle));
  }
  state.SetLabel(internal::ProbeBackendName());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ProbeBucketSimd)->Arg(8)->Arg(32);

void BM_ProbeBucketScalar(benchmark::State& state) {
  std::vector<uint8_t> bytes(
      static_cast<size_t>(state.range(0)) + internal::kBytePadding);
  FillProbeBytes(&bytes);
  const size_t count = static_cast<size_t>(state.range(0));
  uint8_t needle = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        internal::MatchByteMaskScalar(bytes.data(), count, ++needle));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ProbeBucketScalar)->Arg(8)->Arg(32);

void BM_ProbeInlineKeysSimd(benchmark::State& state) {
  NodeId keys[internal::kKeyLanes];
  SplitMix64 rng(6);
  for (NodeId& k : keys) k = rng.NextBelow(1'000'000);
  NodeId needle = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        internal::MatchKeyMask(keys, internal::kKeyLanes, ++needle));
  }
  state.SetLabel(internal::ProbeBackendName());
}
BENCHMARK(BM_ProbeInlineKeysSimd);

void BM_ProbeInlineKeysScalar(benchmark::State& state) {
  NodeId keys[internal::kKeyLanes];
  SplitMix64 rng(6);
  for (NodeId& k : keys) k = rng.NextBelow(1'000'000);
  NodeId needle = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        internal::MatchKeyMaskScalar(keys, internal::kKeyLanes, ++needle));
  }
}
BENCHMARK(BM_ProbeInlineKeysScalar);

// ---- Sharded front-end overhead guard ----------------------------------
// One-thread sharded ops vs the raw core: the spread is the per-op price
// of the stripe lock + shard routing (the single-thread trade-off
// docs/PERFORMANCE.md quotes); the multi-thread payoff is measured by
// the scalability figure, not here (google-benchmark threads would share the
// graph, which is exactly what it measures already).

void BM_ShardedInsertEdge(benchmark::State& state) {
  const auto workload = MakeWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    ShardedCuckooGraph graph;
    state.ResumeTiming();
    for (const Edge& e : workload) {
      benchmark::DoNotOptimize(graph.InsertEdge(e.u, e.v));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_ShardedInsertEdge)->Arg(100'000);

void BM_ShardedQueryEdge(benchmark::State& state) {
  const auto workload = MakeWorkload(static_cast<size_t>(state.range(0)));
  ShardedCuckooGraph graph;
  for (const Edge& e : workload) graph.InsertEdge(e.u, e.v);
  size_t i = 0;
  for (auto _ : state) {
    const Edge& e = workload[i++ % workload.size()];
    benchmark::DoNotOptimize(graph.QueryEdge(e.u, e.v));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedQueryEdge)->Arg(100'000);

void BM_WeightedAdd(benchmark::State& state) {
  WeightedCuckooGraph graph;
  SplitMix64 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph.AddEdge(rng.NextBelow(1'000), rng.NextBelow(10'000)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WeightedAdd);

}  // namespace
}  // namespace cuckoograph

BENCHMARK_MAIN();
