// Workload `analytics`: the figure pipeline. Set-up loads the ingest
// workload's stream (5M power-law arrivals) into a CuckooGraph; the
// timed part builds a CsrSnapshot from the store, runs BFS from eight
// seed-chosen sources and 100 PageRank iterations, all at a thread
// budget of nproc, and repeats that for the run's time. Each metric is
// the fastest repetition (per source, for BFS): the work is identical
// every time, and on a shared machine barrier-synchronised lanes at full
// budget are slowed whenever any one of them loses its CPU, so the
// minimum is the repeatable figure. An untimed budget-1 run is the
// oracle. Core works here only through cursor extraction. An op is one
// pass over the edges (ops_per_s); op_p50_us is the median over sources
// of one BFS.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/bfs.h"
#include "analytics/csr_snapshot.h"
#include "analytics/kernel.h"
#include "analytics/pagerank.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/cuckoo_graph.h"
#include "gen.h"
#include "proc_stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using cuckoograph::Config;
using cuckoograph::CuckooGraph;
using cuckoograph::NeighborCursor;
using cuckoograph::Span;
using cuckoograph::ThreadPool;
using cuckoograph::analytics::CsrSnapshot;
using cuckoograph::analytics::KernelOptions;
using cuckoograph::analytics::KernelResult;
using cuckoograph::analytics::SnapshotOptions;
namespace bfs = cuckoograph::analytics::bfs;
namespace pagerank = cuckoograph::analytics::pagerank;

// The ingest workload's generator and parameters.
constexpr size_t kArrivals = 5'000'000;
constexpr NodeId kVertices = 200'000;
constexpr double kAlpha = 1.8;
constexpr int kBfsSources = 8;
// pagerank::Run's figure configuration.
constexpr int kPageRankIterations = 100;
constexpr double kPageRankTolerance = 1e-9;
constexpr size_t kExtractGrain = 1024;

struct Loaded {
  std::unique_ptr<CuckooGraph> store;
  size_t distinct_edges = 0;  // the oracle's count, from the stream
  std::vector<NodeId> sources;
};

std::unique_ptr<Loaded> Load(uint64_t seed) {
  auto l = std::make_unique<Loaded>();
  const std::vector<Edge> stream =
      PowerLawStream(SubSeed(seed, 1), kArrivals, kVertices, kAlpha);
  l->store = std::make_unique<CuckooGraph>(Config());
  for (const Edge& e : stream) l->store->InsertEdge(e.u, e.v);
  std::vector<uint64_t> keys(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    keys[i] = cuckoograph::EdgeKey(stream[i]);
  }
  std::sort(keys.begin(), keys.end());
  l->distinct_edges = std::unique(keys.begin(), keys.end()) - keys.begin();
  SplitMix64 rng(SubSeed(seed, 3));
  while (l->sources.size() < kBfsSources) {
    const NodeId s = stream[rng.NextBelow(stream.size())].u;
    if (std::find(l->sources.begin(), l->sources.end(), s) ==
        l->sources.end()) {
      l->sources.push_back(s);
    }
  }
  return l;
}

struct KernelRun {
  std::vector<std::vector<double>> depths;  // one per source
  std::vector<double> ranks;
  std::vector<double> bfs_s;  // one per source
  double pagerank_s = 0;
  double TotalBfsS() const {
    double total = 0;
    for (double t : bfs_s) total += t;
    return total;
  }
};

KernelRun RunKernels(const CsrSnapshot& snap,
                     const std::vector<NodeId>& sources, size_t budget,
                     Tracer* tracer) {
  KernelOptions opts;
  opts.num_threads = budget;
  KernelRun run;
  for (NodeId s : sources) {
    ScopedSpan span(tracer, "analytics.bfs");
    run.depths.push_back(
        bfs::Run(snap, Span<const NodeId>(&s, 1), opts).per_node);
    run.bfs_s.push_back(static_cast<double>(span.Finish()) / 1e9);
  }
  ScopedSpan span(tracer, "analytics.pagerank");
  run.ranks = pagerank::Run(snap, {}, opts).per_node;
  run.pagerank_s = static_cast<double>(span.Finish()) / 1e9;
  return run;
}

// Drains the store's node and neighbour cursors into an edge list, one
// contiguous chunk of nodes per task, at the given thread budget.
std::vector<Edge> ExtractEdges(const CuckooGraph& store, size_t budget) {
  std::vector<NodeId> nodes;
  store.ForEachNode([&](NodeId u) { nodes.push_back(u); });
  const size_t chunks = (nodes.size() + kExtractGrain - 1) / kExtractGrain;
  std::vector<std::vector<Edge>> parts(chunks);
  ThreadPool::Shared().EnsureWorkers(budget - 1);
  ThreadPool::Shared().ParallelFor(
      0, chunks, 1, budget, [&](size_t begin, size_t end) {
        NodeId block[NeighborCursor::kBlockSize];
        for (size_t c = begin; c < end; ++c) {
          const size_t last = std::min(nodes.size(), (c + 1) * kExtractGrain);
          for (size_t i = c * kExtractGrain; i < last; ++i) {
            auto cursor = store.Neighbors(nodes[i]);
            size_t n;
            while ((n = cursor->Next(block, NeighborCursor::kBlockSize)) > 0) {
              for (size_t k = 0; k < n; ++k) {
                parts[c].push_back(Edge{nodes[i], block[k]});
              }
            }
          }
        }
      });
  std::vector<Edge> edges;
  for (const auto& part : parts) edges.insert(edges.end(), part.begin(),
                                               part.end());
  return edges;
}

double Min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

Results RunAnalytics(const RunArgs& args, Tracer* tracer) {
  Results r;
  const std::unique_ptr<Loaded> l =
      RepeatedSetup(&r, [&] { return Load(args.seed); });
  const size_t budget = std::max(1u, std::thread::hardware_concurrency());
  SnapshotOptions snap_opts;
  snap_opts.num_threads = budget;

  // The oracle: the budget-1 kernels on the first repetition's snapshot,
  // untimed.
  KernelRun oracle;
  size_t snapshot_bytes = 0;
  std::vector<double> snapshot_s, pagerank_s;
  // Fastest time of each BFS source over the repetitions.
  std::vector<double> bfs_best(l->sources.size(), INFINITY);
  uint64_t kernel_cpu_ns = 0;
  double kernel_wall_s = 0;
  RepeatFor(args.seconds, 2, [&] {
    ScopedSpan span(tracer, "analytics.FromStore");
    const CsrSnapshot snap = CsrSnapshot::FromStore(*l->store, snap_opts);
    snapshot_s.push_back(static_cast<double>(span.Finish()) / 1e9);
    r.Check("analytics: snapshot edge count", 1,
            snap.num_edges() != l->distinct_edges);
    const uint64_t cpu0 = ProcessCpuNs();
    const KernelRun run = RunKernels(snap, l->sources, budget, tracer);
    kernel_cpu_ns += ProcessCpuNs() - cpu0;
    kernel_wall_s += run.TotalBfsS() + run.pagerank_s;
    for (size_t i = 0; i < bfs_best.size(); ++i) {
      bfs_best[i] = std::min(bfs_best[i], run.bfs_s[i]);
    }
    pagerank_s.push_back(run.pagerank_s);
    if (snapshot_bytes == 0) {
      oracle = RunKernels(snap, l->sources, 1, nullptr);
      snapshot_bytes = snap.MemoryBytes();
    }
    r.Note("analytics: rep snapshot_s=" + std::to_string(snapshot_s.back()) +
           " bfs_s=" + std::to_string(run.TotalBfsS()) +
           " pagerank_s=" + std::to_string(run.pagerank_s));
    for (size_t i = 0; i < run.depths.size(); ++i) {
      uint64_t bad = run.depths[i].size() != oracle.depths[i].size();
      for (size_t k = 0; !bad && k < run.depths[i].size(); ++k) {
        bad += run.depths[i][k] != oracle.depths[i][k];
      }
      r.Check("analytics: BFS depths equal the budget-1 run",
              run.depths[i].size(), bad);
    }
    r.Check("analytics: PageRank within 1e-9 of the budget-1 run", 1,
            !(MaxAbsDiff(run.ranks, oracle.ranks) <= kPageRankTolerance));
  });
  const double best_snapshot_s = Min(snapshot_s);
  double best_bfs_s = 0;
  for (double t : bfs_best) best_bfs_s += t;
  const double best_pagerank_s = Min(pagerank_s);
  r.Note("analytics: " + std::to_string(snapshot_s.size()) +
         " repetitions, fastest reported");
  // An op is one pass over the edges: the snapshot build, each BFS and
  // each PageRank iteration count every edge once.
  const double passes = 1.0 + kBfsSources + kPageRankIterations;
  r.E2E("ops_per_s",
        passes * static_cast<double>(l->distinct_edges) /
            (best_snapshot_s + best_bfs_s + best_pagerank_s),
        "1/s");
  r.E2E("op_p50_us", Median(bfs_best) * 1e6, "us");
  r.E2E("bytes_per_edge",
        static_cast<double>(l->store->MemoryBytes()) /
            static_cast<double>(l->distinct_edges),
        "B");
  r.Layer("analytics.snapshot_s", best_snapshot_s, "s");
  r.Layer("analytics.bfs_s", best_bfs_s, "s");
  r.Layer("analytics.pagerank_s", best_pagerank_s, "s");
  if (tracer == nullptr) return r;

  ScopedSpan extract(tracer, "analytics.extract");
  const std::vector<Edge> edges = ExtractEdges(*l->store, budget);
  r.Layer("analytics.extract_s", static_cast<double>(extract.Finish()) / 1e9,
          "s");
  ScopedSpan build(tracer, "analytics.FromEdges");
  const CsrSnapshot from_edges =
      CsrSnapshot::FromEdges(Span<const Edge>(edges), {}, snap_opts);
  r.Layer("analytics.csr_build_s", static_cast<double>(build.Finish()) / 1e9,
          "s");
  r.Check("analytics: FromEdges edge count", 1,
          from_edges.num_edges() != l->distinct_edges);
  r.Layer("analytics.snapshot_bytes", static_cast<double>(snapshot_bytes),
          "B");
  r.Layer("analytics.bfs_seq_s", oracle.TotalBfsS(), "s");
  r.Layer("analytics.bfs_speedup", oracle.TotalBfsS() / best_bfs_s, "x");
  r.Layer("analytics.pagerank_seq_s", oracle.pagerank_s, "s");
  r.Layer("analytics.pagerank_speedup", oracle.pagerank_s / best_pagerank_s,
          "x");
  r.Layer("common.pool_cpu_util",
          static_cast<double>(kernel_cpu_ns) / 1e9 /
              (kernel_wall_s * static_cast<double>(budget)),
          "ratio");
  return r;
}

}  // namespace perfbench
