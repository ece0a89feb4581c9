#include "analytics/csr_snapshot.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"

namespace cuckoograph::analytics {

// Build-local open-addressing table from original id to dense id: linear
// probing over a power-of-two capacity kept at most half full. A slot's
// key is uint64(id) + 1, so 0 marks an empty slot while ids 0 and ~0u
// both stay valid. It serves as a lane's dedup set while the universe is
// collected (ranks unused) and as the universe's id -> rank map.
class DenseIdMap {
 public:
  explicit DenseIdMap(size_t expected) {
    size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    Rehash(capacity);
  }

  // Adds `id` with `rank` unless already present; true when added.
  bool Insert(NodeId id, DenseId rank = 0) {
    Slot& slot = slots_[SlotOf(id)];
    if (slot.key != 0) return false;
    slot = Slot{Key(id), rank};
    if (2 * ++size_ > slots_.size()) Rehash(2 * slots_.size());
    return true;
  }

  // The rank stored with `id`, or CsrSnapshot::kAbsent.
  DenseId Find(NodeId id) const {
    const Slot& slot = slots_[SlotOf(id)];
    return slot.key != 0 ? slot.rank : CsrSnapshot::kAbsent;
  }

 private:
  struct Slot {
    uint64_t key = 0;  // uint64(id) + 1; 0 = empty
    DenseId rank = 0;
  };

  static uint64_t Key(NodeId id) { return uint64_t{id} + 1; }

  // The slot holding `id`, or the empty slot that ends its probe run (the
  // table is never full, so one exists).
  size_t SlotOf(NodeId id) const {
    const uint64_t key = Key(id);
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].key != 0 && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    for (const Slot& s : old) {
      if (s.key != 0) slots_[SlotOf(static_cast<NodeId>(s.key - 1))] = s;
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 64;  // 64 - log2(capacity)
  size_t size_ = 0;
};

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

// The ascending distinct endpoints of `edges` — sinks with no out-edges
// included, since neighbor segments point at them. The edges split into
// one contiguous block per lane; each lane dedups its block into its own
// DenseIdMap and keeps the ids it added, and the lanes' lists (at most
// lanes x n ids) are sort-uniqued, so the result is the same at any
// budget.
std::vector<NodeId> EndpointUniverse(Span<const Edge> edges,
                                     const SnapshotOptions& opts) {
  const size_t m = edges.size();
  const size_t grain = std::max<size_t>(opts.grain, 1);
  const size_t blocks = std::clamp<size_t>(
      (m + grain - 1) / grain, 1, std::max<size_t>(opts.num_threads, 1));
  std::vector<std::vector<NodeId>> added(blocks);
  // One index per block: a lane that gets [first, last) dedups the
  // contiguous edge range those blocks cover.
  BudgetedParallelFor(blocks, 1, 0, blocks, [&](size_t first, size_t last) {
    DenseIdMap seen(1024);
    std::vector<NodeId>& out = added[first];
    for (size_t i = m * first / blocks; i < m * last / blocks; ++i) {
      if (seen.Insert(edges[i].u)) out.push_back(edges[i].u);
      if (seen.Insert(edges[i].v)) out.push_back(edges[i].v);
    }
  });
  std::vector<NodeId> universe = std::move(added.front());
  for (size_t b = 1; b < blocks; ++b) {
    universe.insert(universe.end(), added[b].begin(), added[b].end());
  }
  return SortedUnique(std::move(universe));
}

// The id -> dense id map of an ascending universe.
DenseIdMap RankMap(const std::vector<NodeId>& universe) {
  DenseIdMap ranks(universe.size());
  for (size_t r = 0; r < universe.size(); ++r) {
    ranks.Insert(universe[r], static_cast<DenseId>(r));
  }
  return ranks;
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

// Remap through `ranks` -> atomic degree count -> prefix sum -> scatter
// -> per-segment sort/dedup -> second prefix sum -> compact, each pass
// spread over opts.num_threads lanes. Every segment ends up ascending and
// unique, and duplicate weights sum to the same uint64 in any
// accumulation order, so the snapshot is byte-identical at any budget.
CsrSnapshot CsrSnapshot::Build(std::vector<Edge> edges,
                               std::vector<uint64_t> weights,
                               std::vector<NodeId> universe,
                               const DenseIdMap& ranks,
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
      dense[i].u = ranks.Find(edges[i].u);
      dense[i].v = ranks.Find(edges[i].v);
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

  std::vector<NodeId> universe = EndpointUniverse(edges, opts);
  const DenseIdMap ranks = RankMap(universe);
  return Build(std::move(edges), std::move(weights), std::move(universe),
               ranks, opts);
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
  const DenseIdMap ranks = RankMap(universe);
  const auto member = [&ranks](NodeId v) { return ranks.Find(v) != kAbsent; };

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
               ranks, opts);
}

CsrSnapshot CsrSnapshot::FromEdges(Span<const Edge> edges,
                                   Span<const uint64_t> weights,
                                   SnapshotOptions opts) {
  if (!weights.empty() && weights.size() != edges.size()) {
    throw std::invalid_argument(
        "CsrSnapshot::FromEdges: weights must be empty or parallel to "
        "edges");
  }
  std::vector<NodeId> universe = EndpointUniverse(edges, opts);
  const DenseIdMap ranks = RankMap(universe);
  return Build(std::vector<Edge>(edges.begin(), edges.end()),
               std::vector<uint64_t>(weights.begin(), weights.end()),
               std::move(universe), ranks, opts);
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
