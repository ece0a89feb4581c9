// CuckooGraph (ICDE'25): a fully-dynamic graph store built from cuckoo
// hash tables. The top-level L-CHT maps each vertex to its adjacency; a
// vertex's first 2R neighbours live inline in its L-CHT cell, and the
// TRANSFORMATION mechanism promotes the adjacency into a chain of up to R
// nested cuckoo tables (the S-CHTs) as the degree grows, following the
// Table II length sequence. Kick-out failures park in per-table-set
// DENYLISTs so growth stays load-driven, and the reverse transformation
// tightens the structure again under deletions.
//
// Storage layout: both table families are internal::CuckooBlocks, one
// allocation each holding the geometry and denylist in a header, then
// every table's buckets, each bucket's fingerprints next to its cells
// (see internal/cuckoo_block.h).
//  - the L-CHT is a one-table block of VertexEntry cells: vertex id,
//    degree, and either the inline slots or the vertex's chain (48 B in
//    the unweighted store);
//  - an S-CHT chain is a block of up to R tables of neighbour cells;
//  - the stored cell is a template parameter: the unweighted stores keep
//    neighbour ids only, the weighted store adds a uint32_t weight.
#ifndef CUCKOOGRAPH_CORE_CUCKOO_GRAPH_H_
#define CUCKOOGRAPH_CORE_CUCKOO_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bob_hash.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/config.h"
#include "core/graph_store.h"
#include "core/internal/cuckoo_block.h"
#include "core/internal/epoch.h"
#include "core/internal/simd_probe.h"

namespace cuckoograph {

namespace internal {

// The stored neighbour cell of each store: the unweighted stores keep the
// neighbour id alone, the weighted store adds its accumulated arrival
// count.
struct KeyCell {
  NodeId v;
};
struct WeightedCell {
  NodeId v;
  uint32_t weight = 1;  // a new edge's first arrival
};

// Inline adjacency of a low-degree vertex, as parallel arrays so the
// neighbour keys sit contiguously and one vector compare probes every
// slot (MatchKeyMask). The arrays are sized at the SIMD lane count
// (8 > kInlineSlots); lanes past the degree are ignored.
template <typename Cell>
struct InlineSlots {
  NodeId v[kKeyLanes];
};
template <>
struct InlineSlots<WeightedCell> {
  NodeId v[kKeyLanes];
  uint32_t w[kKeyLanes];
};

}  // namespace internal

// Per-table-family operation counters (Theorems 1 and 2). "l" aggregates
// the top-level L-CHT; "s" aggregates every per-vertex S-CHT chain table.
struct TableStats {
  // Items placed by a direct insertion (one per item, not per probe).
  uint64_t insert_attempts = 0;
  // Kick-out evictions across all placements, rehashes included.
  uint64_t kicks = 0;
  // Items re-placed while a table set expanded, merged, or shrank.
  uint64_t rehash_moves = 0;
  // Merge-and-double growths (S-CHT chains at R tables).
  uint64_t merges = 0;
  // Capacity growths: L-CHT doublings / S-CHT chain appends.
  uint64_t expansions = 0;
};

struct GraphStats {
  TableStats l;
  TableStats s;
  // Live S-CHT chains (vertices past the inline-slot threshold).
  uint64_t num_chains = 0;
  // Inline-to-chain TRANSFORMATIONs performed.
  uint64_t transformations = 0;
  // Chain collapses/shrinks performed by the reverse transformation.
  uint64_t reverse_transformations = 0;
  // Items that were parked in a denylist at least once.
  uint64_t denylist_parks = 0;
};

// The CuckooGraph core over a stored cell type: internal::KeyCell for
// CuckooGraph (and so for every shard of ShardedCuckooGraph),
// internal::WeightedCell for WeightedCuckooGraph.
template <typename Cell>
class BasicCuckooGraph : public GraphStore {
 public:
  // Neighbours stored inline in a vertex cell before TRANSFORMATION (2R
  // with the paper's R = 3).
  static constexpr int kInlineSlots = 6;

  explicit BasicCuckooGraph(const Config& config);
  ~BasicCuckooGraph() override;

  BasicCuckooGraph(const BasicCuckooGraph&) = delete;
  BasicCuckooGraph& operator=(const BasicCuckooGraph&) = delete;

  StoreCapabilities Capabilities() const override {
    StoreCapabilities caps;
    caps.deletions = true;
    caps.weighted = kWeighted;
    return caps;
  }
  bool InsertEdge(NodeId u, NodeId v) override;
  bool QueryEdge(NodeId u, NodeId v) const override;
  bool DeleteEdge(NodeId u, NodeId v) override;
  std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const override;
  std::unique_ptr<NeighborCursor> Nodes() const override;
  size_t NumEdges() const override { return num_edges_; }
  size_t NumNodes() const override;
  size_t MemoryBytes() const override;

  // O(1): the degree is a field of the vertex cell.
  size_t OutDegree(NodeId u) const override;

  // The (normalized) configuration this instance runs with.
  const Config& config() const { return config_; }

  // Snapshot of the operation counters.
  GraphStats stats() const;

  // Bucket counts of each table in `u`'s S-CHT chain, head first; empty if
  // `u` has no chain (absent or still inline). Backs the Table II bench.
  std::vector<size_t> SChainLengths(NodeId u) const;

  // ---- Optimistic-read hooks (ShardedCuckooGraph's lock-free path) ---------
  // The graph itself stays single-writer; these only make its storage
  // safe to *probe* while the (lock-serialized) writer runs elsewhere.
  // The caller owns the seqlock that detects torn reads (SeqValidator)
  // and the epoch pin that keeps retired allocations alive; the methods
  // below own crash-safety: they never dereference a pointer that was
  // copied out of racing storage without validating it first. A reader
  // takes the chain pointer and shape from its validated VertexEntry
  // copy, and the L-CHT's geometry from the block it pins, which never
  // changes.

  // Routes reader-reachable frees (replaced L-CHT blocks, replaced or
  // dropped chain blocks) through `r` instead of freeing inline. Must
  // be set before the first optimistic reader can run; nullptr (the
  // default) frees immediately, which is correct for single-threaded use.
  void set_reclaimer(internal::Reclaimer* r) { reclaimer_ = r; }

  // Each returns true and sets *out when the probe validated cleanly
  // against `sv`; false means a writer interfered and the caller must
  // retry or take its locked path.
  // Excluded from TSan instrumentation here, on the declarations: GCC
  // drops the attribute from an out-of-class template definition.
  CUCKOOGRAPH_NO_SANITIZE_THREAD
  bool TryQueryEdge(NodeId u, NodeId v, const internal::SeqValidator& sv,
                    bool* present) const;
  CUCKOOGRAPH_NO_SANITIZE_THREAD
  bool TryOutDegree(NodeId u, const internal::SeqValidator& sv,
                    size_t* degree) const;

 protected:
  static constexpr bool kWeighted =
      std::is_same_v<Cell, internal::WeightedCell>;

  // Weighted-store hooks (see WeightedCuckooGraph): inserts <u, v> with
  // weight `delta` if absent, otherwise adds `delta`; returns the
  // resulting weight. GetEdgeWeight is 0 for an absent edge. The
  // unweighted store has no weights and reports 1 for a present edge.
  uint64_t AddEdgeWeight(NodeId u, NodeId v, uint32_t delta);
  uint64_t GetEdgeWeight(NodeId u, NodeId v) const;

 private:
  using Chain = internal::CuckooBlock<Cell>;

  // A chain vertex's block and a copy of its immutable shape, written
  // together on every swap: probes address the candidate buckets from
  // the copy instead of waiting for the block's header line.
  struct ChainRef {
    Chain* block;
    internal::BlockShape shape;
  };

  // One L-CHT cell: the vertex `v` and its adjacency, either inline
  // (first kInlineSlots neighbours) or an owned S-CHT chain block.
  struct VertexEntry {
    NodeId v = 0;
    uint32_t degree = 0;
    bool has_chain = false;
    union {
      internal::InlineSlots<Cell> inline_;
      ChainRef chain;
    };
    VertexEntry() : inline_{} {}
  };
  using LTable = internal::CuckooBlock<VertexEntry>;

  class NeighborCursorImpl;
  class NodeCursorImpl;

  VertexEntry* FindVertex(NodeId u);
  const VertexEntry* FindVertex(NodeId u) const;
  bool Contains(const VertexEntry& e, NodeId v) const;
  // The stored weight of <e, v> (inline lane or chain cell), or nullptr
  // when the edge is absent. Weighted store only.
  uint32_t* FindWeight(const VertexEntry& e, NodeId v) const;
  // Inserts <u, cell.v> unless present; returns true when inserted. When
  // present, the weighted store adds cell.weight to the stored weight.
  // *weight receives the resulting weight (weighted store only).
  bool Upsert(NodeId u, const Cell& cell, uint64_t* weight);
  // Adds a neighbour to an inline vertex, transforming it to a chain
  // when the inline slots are full.
  void AppendNeighbor(VertexEntry* e, const Cell& cell);
  void PlaceVertex(VertexEntry entry);
  // Rebuilds the L-CHT at new_buckets (doubling further on placement
  // failure) and swaps it in.
  void RebuildL(size_t new_buckets);
  void MaybeShrinkL();
  // Unlinks `e` from the L-CHT, then frees its chain.
  void RemoveVertex(VertexEntry* e);

  static Cell InlineCell(const VertexEntry& e, uint32_t i);
  static void SetInlineCell(VertexEntry* e, uint32_t i, const Cell& cell);
  internal::KeyHashes Hash(NodeId v) const {
    return internal::HashKey(v, h1_, h2_);
  }

  // ---- Blocks (the L-CHT and every S-CHT chain) ----
  // A block is replaced, never resized: the structural changes build a
  // new block, point the owner at it and retire the old.
  internal::BlockShape ShapeFor(size_t head_buckets,
                                uint32_t num_tables) const;
  // Places *item in `b`, newest table first, else parks it in b's
  // denylist. False, with the homeless survivor in *item, when both fail.
  template <typename T>
  bool PlaceOrPark(internal::CuckooBlock<T>* b, T* item,
                   internal::KeyHashes k, TableStats* stats);
  // A new block of `shape` holding every item of `old`: each is placed
  // into tables 0..n-1, else parked; when neither fits, the head doubles
  // and the refill starts over. Charges kicks and moves to *stats.
  template <typename T>
  internal::CuckooBlock<T>* Refill(const internal::CuckooBlock<T>& old,
                                   internal::BlockShape shape,
                                   TableStats* stats);
  // Frees a superseded or dropped block, through the reclaimer when one
  // is set.
  template <typename T>
  void Retire(internal::CuckooBlock<T>* b);

  // ---- S-CHT chains ----
  Chain* NewChain();
  static void AttachChain(VertexEntry* e, Chain* c);
  void TransformToChain(VertexEntry* e);
  void ChainInsert(VertexEntry* e, Cell cell, internal::KeyHashes k);
  void GrowChain(VertexEntry* e);
  void ReplaceChain(VertexEntry* e, Chain* fresh);
  void MaybeReverseTransform(VertexEntry* e);
  void FreeChain(Chain* c);

  // Lock-free vertex probe behind TryQueryEdge/TryOutDegree: copies the
  // entry out, to be validated by the caller before anything in it (the
  // chain pointer included) is trusted.
  CUCKOOGRAPH_NO_SANITIZE_THREAD
  bool OptimisticFindVertex(NodeId u, VertexEntry* out) const;

  // Writer-side view of the L-CHT: writers are serialized by the owner,
  // so relaxed is enough.
  LTable* l_table() const { return l_.load(std::memory_order_relaxed); }

  Config config_;
  BobHash h1_;
  BobHash h2_;
  SplitMix64 rng_;
  // The L-CHT. The writer swaps it with a release store after a rebuild
  // (retiring the old block); optimistic readers acquire it.
  std::atomic<LTable*> l_;
  internal::Reclaimer* reclaimer_ = nullptr;
  size_t num_edges_ = 0;
  TableStats l_stats_;
  TableStats s_stats_;
  uint64_t num_chains_ = 0;
  uint64_t transformations_ = 0;
  uint64_t reverse_transformations_ = 0;
  uint64_t denylist_parks_ = 0;
};

extern template class BasicCuckooGraph<internal::KeyCell>;
extern template class BasicCuckooGraph<internal::WeightedCell>;

// The paper's CuckooGraph: unweighted edges, keys-only cells.
class CuckooGraph : public BasicCuckooGraph<internal::KeyCell> {
 public:
  CuckooGraph() : CuckooGraph(Config()) {}
  explicit CuckooGraph(const Config& config) : BasicCuckooGraph(config) {}

  std::string_view name() const override { return "CuckooGraph"; }
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_CORE_CUCKOO_GRAPH_H_
