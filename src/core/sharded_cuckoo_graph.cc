#include "core/sharded_cuckoo_graph.h"

#include <algorithm>
#include <utility>

#include "common/mutex.h"

namespace cuckoograph {

namespace {

// Cursor over an owned id list — Nodes() and Neighbors() materialize their
// answer under the shard locks so the cursor never dangles into a shard.
class VectorCursor final : public NeighborCursor {
 public:
  explicit VectorCursor(std::vector<NodeId> ids) : ids_(std::move(ids)) {}

  size_t Next(NodeId* out, size_t capacity) override {
    size_t written = 0;
    while (written < capacity && pos_ < ids_.size()) {
      out[written++] = ids_[pos_++];
    }
    return written;
  }

 private:
  std::vector<NodeId> ids_;
  size_t pos_ = 0;
};

void AddTableStats(TableStats* into, const TableStats& from) {
  into->insert_attempts += from.insert_attempts;
  into->kicks += from.kicks;
  into->rehash_moves += from.rehash_moves;
  into->merges += from.merges;
  into->expansions += from.expansions;
}

}  // namespace

ShardedCuckooGraph::ShardedCuckooGraph(const Config& config)
    : optimistic_reads_(config.optimistic_reads) {
  const size_t count = std::max<size_t>(1, config.num_shards);
  shards_.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    shards_.push_back(std::make_unique<Shard>(config));
  }
}

ShardedCuckooGraph::~ShardedCuckooGraph() = default;

// ---- Scalar edge ops: one shard, one lock ----------------------------------
// Mutations additionally bump the shard's seqlock word (BeginWrite /
// EndWrite) so in-flight optimistic readers notice them. Reads try the
// lock-free path first and fall back to the shared lock.

bool ShardedCuckooGraph::InsertEdge(NodeId u, NodeId v) {
  Shard& shard = *shards_[ShardIndex(u)];
  WriterMutexLock lock(&shard.mu);
  shard.BeginWrite();
  const bool fresh = shard.graph.InsertEdge(u, v);
  shard.EndWrite();
  return fresh;
}

bool ShardedCuckooGraph::QueryEdge(NodeId u, NodeId v) const {
  const Shard& shard = *shards_[ShardIndex(u)];
  if (optimistic_reads_) {
    bool present = false;
    if (TryOptimisticRead(shard, [&](const CuckooGraph& g,
                                     const internal::SeqValidator& sv) {
          return g.TryQueryEdge(u, v, sv, &present);
        })) {
      shard.optimistic_reads_served.fetch_add(1,
                                              std::memory_order_relaxed);
      return present;
    }
  }
  shard.locked_reads_served.fetch_add(1, std::memory_order_relaxed);
  ReaderMutexLock lock(&shard.mu);
  return shard.graph.QueryEdge(u, v);
}

bool ShardedCuckooGraph::DeleteEdge(NodeId u, NodeId v) {
  Shard& shard = *shards_[ShardIndex(u)];
  WriterMutexLock lock(&shard.mu);
  shard.BeginWrite();
  const bool removed = shard.graph.DeleteEdge(u, v);
  shard.EndWrite();
  return removed;
}

size_t ShardedCuckooGraph::OutDegree(NodeId u) const {
  const Shard& shard = *shards_[ShardIndex(u)];
  if (optimistic_reads_) {
    size_t degree = 0;
    if (TryOptimisticRead(shard, [&](const CuckooGraph& g,
                                     const internal::SeqValidator& sv) {
          return g.TryOutDegree(u, sv, &degree);
        })) {
      shard.optimistic_reads_served.fetch_add(1,
                                              std::memory_order_relaxed);
      return degree;
    }
  }
  shard.locked_reads_served.fetch_add(1, std::memory_order_relaxed);
  ReaderMutexLock lock(&shard.mu);
  return shard.graph.OutDegree(u);
}

// ---- Batch ops: group by shard, one lock acquisition per shard -------------

template <typename Fn>
void ShardedCuckooGraph::GroupByShard(Span<const Edge> edges, Fn fn) const {
  // Counting sort by shard index, preserving each shard's arrival order.
  const size_t n = shards_.size();
  std::vector<size_t> offsets(n + 1, 0);
  for (const Edge& e : edges) ++offsets[ShardIndex(e.u) + 1];
  for (size_t s = 0; s < n; ++s) offsets[s + 1] += offsets[s];
  std::vector<Edge> grouped(edges.size());
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) grouped[cursor[ShardIndex(e.u)]++] = e;
  for (size_t s = 0; s < n; ++s) {
    if (offsets[s] == offsets[s + 1]) continue;
    fn(s, Span<const Edge>(grouped.data() + offsets[s],
                           offsets[s + 1] - offsets[s]));
  }
}

size_t ShardedCuckooGraph::InsertSlice(Shard& shard, Span<const Edge> part) {
  return shard.graph.InsertEdges(part);
}

size_t ShardedCuckooGraph::QuerySlice(const Shard& shard,
                                      Span<const Edge> part) {
  return shard.graph.QueryEdges(part);
}

size_t ShardedCuckooGraph::DeleteSlice(Shard& shard, Span<const Edge> part) {
  return shard.graph.DeleteEdges(part);
}

size_t ShardedCuckooGraph::InsertEdges(Span<const Edge> edges) {
  size_t fresh = 0;
  GroupByShard(edges, [this, &fresh](size_t s, Span<const Edge> part) {
    Shard& shard = *shards_[s];
    WriterMutexLock lock(&shard.mu);
    shard.BeginWrite();
    fresh += InsertSlice(shard, part);
    shard.EndWrite();
  });
  return fresh;
}

bool ShardedCuckooGraph::TryOptimisticQuerySlice(const Shard& shard,
                                                 Span<const Edge> part,
                                                 size_t* present) {
  internal::EpochGuard guard(&shard.epochs);
  if (!guard.pinned()) return false;
  size_t hits = 0;
  for (const Edge& e : part) {
    bool resolved = false;
    bool edge_present = false;
    for (int attempt = 0; attempt < kOptimisticRetries; ++attempt) {
      const uint64_t s1 = shard.seq.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // writer inside; retry
      const internal::SeqValidator sv{&shard.seq, s1};
      if (shard.graph.TryQueryEdge(e.u, e.v, sv, &edge_present)) {
        resolved = true;
        break;
      }
    }
    if (!resolved) return false;  // caller redoes the slice under lock
    if (edge_present) ++hits;
  }
  *present = hits;
  return true;
}

size_t ShardedCuckooGraph::QueryEdges(Span<const Edge> edges) const {
  size_t present = 0;
  GroupByShard(edges, [this, &present](size_t s, Span<const Edge> part) {
    const Shard& shard = *shards_[s];
    if (optimistic_reads_) {
      size_t slice_hits = 0;
      if (TryOptimisticQuerySlice(shard, part, &slice_hits)) {
        present += slice_hits;
        shard.optimistic_reads_served.fetch_add(
            part.size(), std::memory_order_relaxed);
        return;
      }
    }
    shard.locked_reads_served.fetch_add(part.size(),
                                        std::memory_order_relaxed);
    ReaderMutexLock lock(&shard.mu);
    present += QuerySlice(shard, part);
  });
  return present;
}

size_t ShardedCuckooGraph::DeleteEdges(Span<const Edge> edges) {
  size_t removed = 0;
  GroupByShard(edges, [this, &removed](size_t s, Span<const Edge> part) {
    Shard& shard = *shards_[s];
    WriterMutexLock lock(&shard.mu);
    shard.BeginWrite();
    removed += DeleteSlice(shard, part);
    shard.EndWrite();
  });
  return removed;
}

// ---- Iteration -------------------------------------------------------------

std::unique_ptr<NeighborCursor> ShardedCuckooGraph::Neighbors(
    NodeId u) const {
  // Copied under the reader lock, like Nodes(): a leased in-place cursor
  // would be drained after the lock drops, racing any writer on the shard.
  std::vector<NodeId> ids;
  const Shard& shard = *shards_[ShardIndex(u)];
  ReaderMutexLock lock(&shard.mu);
  ids.reserve(shard.graph.OutDegree(u));
  shard.graph.ForEachNeighbor(u, [&ids](NodeId v) { ids.push_back(v); });
  return std::make_unique<VectorCursor>(std::move(ids));
}

std::unique_ptr<NeighborCursor> ShardedCuckooGraph::Nodes() const {
  std::vector<NodeId> ids;
  for (const auto& entry : shards_) {
    const Shard& shard = *entry;
    ReaderMutexLock lock(&shard.mu);
    shard.graph.ForEachNode([&ids](NodeId u) { ids.push_back(u); });
  }
  return std::make_unique<VectorCursor>(std::move(ids));
}

// ---- Accounting ------------------------------------------------------------

size_t ShardedCuckooGraph::NumEdges() const {
  size_t edges = 0;
  for (const auto& entry : shards_) {
    const Shard& shard = *entry;
    ReaderMutexLock lock(&shard.mu);
    edges += shard.graph.NumEdges();
  }
  return edges;
}

size_t ShardedCuckooGraph::NumNodes() const {
  // Shards partition by source vertex, so no vertex is counted twice.
  size_t nodes = 0;
  for (const auto& entry : shards_) {
    const Shard& shard = *entry;
    ReaderMutexLock lock(&shard.mu);
    nodes += shard.graph.NumNodes();
  }
  return nodes;
}

size_t ShardedCuckooGraph::MemoryBytes() const {
  size_t bytes = sizeof(*this) + shards_.capacity() * sizeof(shards_[0]);
  for (const auto& entry : shards_) {
    const Shard& shard = *entry;
    ReaderMutexLock lock(&shard.mu);
    bytes += sizeof(Shard) - sizeof(CuckooGraph) + shard.graph.MemoryBytes();
  }
  return bytes;
}

GraphStats ShardedCuckooGraph::stats() const {
  GraphStats total;
  for (const auto& entry : shards_) {
    const Shard& shard = *entry;
    ReaderMutexLock lock(&shard.mu);
    const GraphStats st = shard.graph.stats();
    AddTableStats(&total.l, st.l);
    AddTableStats(&total.s, st.s);
    total.num_chains += st.num_chains;
    total.transformations += st.transformations;
    total.reverse_transformations += st.reverse_transformations;
    total.denylist_parks += st.denylist_parks;
  }
  return total;
}

ShardedCuckooGraph::ReadPathStats ShardedCuckooGraph::read_path_stats()
    const {
  ReadPathStats total;
  for (const auto& entry : shards_) {
    total.optimistic += entry->optimistic_reads_served.load(
        std::memory_order_relaxed);
    total.locked +=
        entry->locked_reads_served.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace cuckoograph
