#include "analytics/csr_snapshot.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"

namespace cuckoograph::analytics {

namespace {

// One edge in dense coordinates, carried through the sort that canonicalizes
// the CSR segments.
struct DenseEdge {
  DenseId u = 0;
  DenseId v = 0;
  uint64_t w = 0;
};

std::vector<NodeId> SortedUnique(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// Runs `extract(u, emit)` over every member of `sources` and returns the
// emitted edges in `sources` order, whatever the budget: chunks collect
// locally and are stitched back in range order.
template <typename ExtractFn>
std::vector<Edge> ExtractEdgesOrdered(const SnapshotOptions& opts,
                                      const std::vector<NodeId>& sources,
                                      ExtractFn&& extract) {
  std::mutex mu;
  std::vector<std::pair<size_t, std::vector<Edge>>> chunks;
  BudgetedParallelFor(opts.num_threads, opts.grain, 0, sources.size(),
                      [&](size_t begin, size_t end) {
                        std::vector<Edge> local;
                        for (size_t i = begin; i < end; ++i) {
                          extract(sources[i], local);
                        }
                        std::lock_guard<std::mutex> lock(mu);
                        chunks.emplace_back(begin, std::move(local));
                      });
  if (chunks.empty()) return {};
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Edge> edges = std::move(chunks.front().second);
  for (size_t c = 1; c < chunks.size(); ++c) {
    edges.insert(edges.end(), chunks[c].second.begin(),
                 chunks[c].second.end());
  }
  return edges;
}

// Pulls per-edge weights, one EdgeWeight probe per edge (disjoint
// writes).
std::vector<uint64_t> PullWeights(const GraphStore& store,
                                  const std::vector<Edge>& edges,
                                  const SnapshotOptions& opts) {
  std::vector<uint64_t> weights(edges.size());
  BudgetedParallelFor(opts.num_threads, opts.grain, 0, edges.size(),
                      [&](size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          weights[i] = store.EdgeWeight(edges[i].u,
                                                        edges[i].v);
                        }
                      });
  return weights;
}

}  // namespace

// Atomic degree count -> prefix sum -> scatter -> per-segment sort/dedup
// -> second prefix sum -> compact, each pass spread over opts.num_threads
// lanes. Every segment ends up ascending and unique, and duplicate weights
// sum to the same uint64 in any accumulation order, so the snapshot is
// byte-identical at any budget.
CsrSnapshot CsrSnapshot::Build(std::vector<Edge> edges,
                               std::vector<uint64_t> weights,
                               std::vector<NodeId> universe,
                               const SnapshotOptions& opts) {
  CsrSnapshot snap;
  snap.originals_ = std::move(universe);
  const size_t n = snap.originals_.size();
  snap.offsets_.assign(n + 1, 0);
  const bool weighted = !weights.empty();
  const auto parallel_for = [&opts](size_t end, auto&& body) {
    BudgetedParallelFor(opts.num_threads, opts.grain, 0, end, body);
  };

  const size_t m = edges.size();
  std::vector<DenseEdge> dense(m);
  parallel_for(m, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      dense[i].u = snap.ToDense(edges[i].u);
      dense[i].v = snap.ToDense(edges[i].v);
      dense[i].w = weighted ? weights[i] : 1;
    }
  });

  auto counts = std::make_unique<std::atomic<size_t>[]>(n);
  for (size_t u = 0; u < n; ++u) {
    counts[u].store(0, std::memory_order_relaxed);
  }
  parallel_for(m, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      counts[dense[i].u].fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<size_t> raw_offsets(n + 1, 0);  // pre-dedup segment bounds
  for (size_t u = 0; u < n; ++u) {
    raw_offsets[u + 1] =
        raw_offsets[u] + counts[u].load(std::memory_order_relaxed);
  }
  // Reuse counts[] as the scatter cursors.
  for (size_t u = 0; u < n; ++u) {
    counts[u].store(raw_offsets[u], std::memory_order_relaxed);
  }
  std::vector<std::pair<DenseId, uint64_t>> scratch(m);  // (v, w) per slot
  parallel_for(m, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const size_t slot =
          counts[dense[i].u].fetch_add(1, std::memory_order_relaxed);
      scratch[slot] = {dense[i].v, dense[i].w};
    }
  });

  // Sort each vertex's segment by target and count its unique targets;
  // segments are disjoint, so lanes never touch the same slots.
  std::vector<size_t> uniq(n, 0);
  parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const auto seg_begin = scratch.begin() +
                             static_cast<ptrdiff_t>(raw_offsets[u]);
      const auto seg_end = scratch.begin() +
                           static_cast<ptrdiff_t>(raw_offsets[u + 1]);
      std::sort(seg_begin, seg_end,
                [](const auto& a, const auto& b) {
                  return a.first < b.first;
                });
      size_t distinct = 0;
      DenseId last = 0;
      for (auto it = seg_begin; it != seg_end; ++it) {
        if (distinct == 0 || it->first != last) {
          ++distinct;
          last = it->first;
        }
      }
      uniq[u] = distinct;
    }
  });
  for (size_t u = 0; u < n; ++u) {
    snap.offsets_[u + 1] = snap.offsets_[u] + uniq[u];
  }

  snap.neighbors_.resize(snap.offsets_[n]);
  if (weighted) snap.weights_.resize(snap.offsets_[n]);
  parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      size_t out = snap.offsets_[u];
      for (size_t i = raw_offsets[u]; i < raw_offsets[u + 1]; ++i) {
        const auto& [v, w] = scratch[i];
        if (out > snap.offsets_[u] && snap.neighbors_[out - 1] == v) {
          if (weighted) snap.weights_[out - 1] += w;
          continue;
        }
        snap.neighbors_[out] = v;
        if (weighted) snap.weights_[out] = w;
        ++out;
      }
    }
  });
  return snap;
}

CsrSnapshot CsrSnapshot::FromStore(const GraphStore& store,
                                   SnapshotOptions opts) {
  // Quiesced-snapshot contract (see the header): the build drains cursors
  // across the whole store, so no writer may run concurrently — not even
  // on a store whose Capabilities() advertise concurrent_mutations. The
  // edge-count recheck below catches a mutating store after the fact.
  // (Multi-lane extraction leans on the same contract: concurrent const
  // reads of a quiesced store race nothing.)
  const size_t edges_at_start = store.NumEdges();

  // Drain the node cursor fully before opening neighbor cursors, and pull
  // weights only after every cursor is closed.
  std::vector<NodeId> sources;
  sources.reserve(store.NumNodes());
  store.ForEachNode([&sources](NodeId u) { sources.push_back(u); });

  std::vector<Edge> edges = ExtractEdgesOrdered(
      opts, sources, [&store](NodeId u, std::vector<Edge>& out) {
        store.ForEachNeighbor(u, [&out, u](NodeId v) {
          out.push_back(Edge{u, v});
        });
      });

  std::vector<uint64_t> weights;
  if (opts.with_weights && !edges.empty()) {
    weights = PullWeights(store, edges, opts);
  }

  if (store.NumEdges() != edges_at_start || edges.size() != edges_at_start) {
    throw std::logic_error(
        "CsrSnapshot::FromStore: store mutated during the snapshot build; "
        "quiesce writers before snapshotting (see csr_snapshot.h)");
  }

  // The universe is every endpoint: sinks holding no out-edges still need
  // dense ids because neighbor segments point at them.
  std::vector<NodeId> universe;
  universe.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    universe.push_back(e.u);
    universe.push_back(e.v);
  }
  return Build(std::move(edges), std::move(weights),
               SortedUnique(std::move(universe)), opts);
}

CsrSnapshot CsrSnapshot::FromStore(const GraphStore& store,
                                   Span<const NodeId> nodes,
                                   SnapshotOptions opts) {
  // Same quiesced-snapshot contract as the full-store overload; the
  // induced walk only sees the subgraph, so the store-wide edge count is
  // the recheck (a mutation outside `nodes` still races the cursors).
  const size_t edges_at_start = store.NumEdges();

  std::vector<NodeId> universe =
      SortedUnique(std::vector<NodeId>(nodes.begin(), nodes.end()));
  const auto member = [&universe](NodeId v) {
    return std::binary_search(universe.begin(), universe.end(), v);
  };

  std::vector<Edge> edges = ExtractEdgesOrdered(
      opts, universe, [&store, &member](NodeId u, std::vector<Edge>& out) {
        store.ForEachNeighbor(u, [&out, &member, u](NodeId v) {
          if (member(v)) out.push_back(Edge{u, v});
        });
      });

  if (store.NumEdges() != edges_at_start) {
    throw std::logic_error(
        "CsrSnapshot::FromStore: store mutated during the induced "
        "snapshot build; quiesce writers before snapshotting (see "
        "csr_snapshot.h)");
  }

  std::vector<uint64_t> weights;
  if (opts.with_weights && !edges.empty()) {
    weights = PullWeights(store, edges, opts);
  }
  return Build(std::move(edges), std::move(weights), std::move(universe),
               opts);
}

CsrSnapshot CsrSnapshot::FromEdges(Span<const Edge> edges,
                                   Span<const uint64_t> weights,
                                   SnapshotOptions opts) {
  if (!weights.empty() && weights.size() != edges.size()) {
    throw std::invalid_argument(
        "CsrSnapshot::FromEdges: weights must be empty or parallel to "
        "edges");
  }
  std::vector<NodeId> universe;
  universe.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    universe.push_back(e.u);
    universe.push_back(e.v);
  }
  return Build(std::vector<Edge>(edges.begin(), edges.end()),
               std::vector<uint64_t>(weights.begin(), weights.end()),
               SortedUnique(std::move(universe)), opts);
}

bool CsrSnapshot::HasEdge(DenseId u, DenseId v) const {
  const DenseId* begin = neighbors_.data() + offsets_[u];
  const DenseId* end = neighbors_.data() + offsets_[u + 1];
  return std::binary_search(begin, end, v);
}

DenseId CsrSnapshot::ToDense(NodeId original) const {
  const auto it =
      std::lower_bound(originals_.begin(), originals_.end(), original);
  if (it == originals_.end() || *it != original) return kAbsent;
  return static_cast<DenseId>(it - originals_.begin());
}

std::vector<Edge> CsrSnapshot::ExtractEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (DenseId u = 0; u < num_nodes(); ++u) {
    for (const DenseId v : Neighbors(u)) {
      edges.push_back(Edge{ToOriginal(u), ToOriginal(v)});
    }
  }
  return edges;
}

size_t CsrSnapshot::MemoryBytes() const {
  return offsets_.size() * sizeof(size_t) +
         neighbors_.size() * sizeof(DenseId) +
         weights_.size() * sizeof(uint64_t) +
         originals_.size() * sizeof(NodeId);
}

}  // namespace cuckoograph::analytics
