// CsrSnapshot: the analytics engine's flat view of a dynamic store. The
// kernels (bfs.h ... lcc.h) never touch the virtual GraphStore: a snapshot
// is materialized once per (store, node-set) through the v2 block cursors,
// and traversal then runs over a compact CSR — offsets + neighbor array,
// an optional weights array pulled through GraphStore::EdgeWeight, and a
// dense node remapping so per-node kernel state is plain arrays instead of
// hash maps. This is the GAP/Ligra-style split: the store pays its
// snapshot/extract cost once, and the kernel runs at memory speed.
#ifndef CUCKOOGRAPH_ANALYTICS_CSR_SNAPSHOT_H_
#define CUCKOOGRAPH_ANALYTICS_CSR_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/types.h"
#include "core/graph_store.h"

namespace cuckoograph::analytics {

// Index into the snapshot's dense [0, num_nodes) vertex space.
using DenseId = uint32_t;

// The builder's id -> dense id table (defined in csr_snapshot.cc).
class DenseIdMap;

// Snapshot-build options (namespace scope so it is complete before the
// builders' default arguments are parsed).
struct SnapshotOptions {
  // Pull per-edge weights through GraphStore::EdgeWeight. The layer
  // itself accepts any store (an unweighted scheme reports weight 1 per
  // edge, degenerating weighted kernels to hop counts); whether a
  // weight-requiring figure runs a scheme or skips it on
  // !Capabilities().weighted is the bench's methodological call (fig11
  // skips, per Section V-E2).
  bool with_weights = false;
  // Lanes the build may use (the calling thread counts as one; 0 counts
  // as 1). One builder serves every budget: it extracts per-source
  // adjacency and weights (safe on a quiesced store: concurrent const
  // reads race nothing once writers stop); collects the vertex universe
  // by deduplicating each lane's block of endpoints in a hash set and
  // sorting the lanes' distinct ids once; remaps every endpoint through a
  // build-local open-addressing id -> dense id table; and constructs the
  // CSR by degree-count / prefix-sum / scatter / per-segment sort. The
  // per-edge and per-vertex passes are spread over the lanes; the merge
  // of the lanes' ids, the id table and the prefix sums stay on the
  // calling thread. The result is byte-identical at any budget — the
  // universe is the same ascending set, segment order is canonical and
  // duplicate-weight accumulation is an order-independent integer sum —
  // which tests/parallel_kernels_test.cc checks per scheme against a
  // naive model.
  size_t num_threads = 1;
  // Minimum items per parallel-for chunk (sources during extraction,
  // edges/vertices during construction).
  size_t grain = 1024;
};

class CsrSnapshot {
 public:
  // ToDense() result for node ids absent from the snapshot.
  static constexpr DenseId kAbsent = ~DenseId{0};

  using Options = SnapshotOptions;

  CsrSnapshot() = default;

  // Snapshot of every edge currently in `store`. The vertex universe is
  // every endpoint (sinks with no out-edges included), dense ids assigned
  // in ascending original-id order so the snapshot is identical across
  // schemes holding the same edge set.
  //
  // Quiesced-snapshot contract: the build drains the store's cursors, and
  // every cursor is invalidated by any mutation — so the store must be
  // externally quiesced (no concurrent writers) for the whole call, even
  // when Capabilities().concurrent_mutations holds (e.g. the sharded
  // front-end, whose per-shard locks serialize individual ops but not a
  // store-wide walk). The builder rechecks NumEdges() after the drain and
  // throws std::logic_error when it caught the store moving; a mutation
  // that leaves the count unchanged can evade the check, so the contract
  // is the guarantee, the throw is best-effort detection.
  static CsrSnapshot FromStore(const GraphStore& store,
                               SnapshotOptions opts = {});

  // Snapshot of the subgraph induced by `nodes`: every stored edge with
  // both endpoints in `nodes`. The vertex universe is exactly the
  // deduplicated `nodes` (degree-0 members included). Same
  // quiesced-snapshot contract and best-effort mutation recheck as the
  // full-store overload above.
  static CsrSnapshot FromStore(const GraphStore& store,
                               Span<const NodeId> nodes,
                               SnapshotOptions opts = {});

  // Snapshot of a plain edge list (tests, reference models). Duplicate
  // edges collapse; with `weights` (parallel to `edges`, or empty for unit
  // weights) duplicates accumulate, matching weighted-store arrivals.
  // Throws std::invalid_argument when `weights` is non-empty but not the
  // same length as `edges`. opts.with_weights is ignored (the explicit
  // `weights` span decides); opts.num_threads is the lane budget, same
  // byte-identical contract as FromStore.
  static CsrSnapshot FromEdges(Span<const Edge> edges,
                               Span<const uint64_t> weights = {},
                               SnapshotOptions opts = {});

  size_t num_nodes() const { return originals_.size(); }
  size_t num_edges() const { return neighbors_.size(); }
  bool has_weights() const { return !weights_.empty(); }

  size_t Degree(DenseId u) const { return offsets_[u + 1] - offsets_[u]; }

  // Successors of `u` as dense ids, ascending.
  Span<const DenseId> Neighbors(DenseId u) const {
    return Span<const DenseId>(neighbors_.data() + offsets_[u], Degree(u));
  }

  // Weights parallel to Neighbors(u). Only valid when has_weights().
  Span<const uint64_t> Weights(DenseId u) const {
    return Span<const uint64_t>(weights_.data() + offsets_[u], Degree(u));
  }

  // Binary search over the sorted adjacency segment.
  bool HasEdge(DenseId u, DenseId v) const;

  NodeId ToOriginal(DenseId dense) const { return originals_[dense]; }

  // Dense id of an original node id, or kAbsent. Binary search over the
  // ascending original-id table: the builder's hash table is dropped when
  // the build returns, so the snapshot keeps no map.
  DenseId ToDense(NodeId original) const;

  // Dense -> original table, ascending by original id.
  Span<const NodeId> originals() const {
    return Span<const NodeId>(originals_);
  }

  // The snapshot's edges in original ids, <u asc, v asc> — the round-trip
  // check and the induced-subgraph extraction both read edges back out
  // this way.
  std::vector<Edge> ExtractEdges() const;

  // Heap footprint of the CSR arrays.
  size_t MemoryBytes() const;

 private:
  static CsrSnapshot Build(std::vector<Edge> edges,
                           std::vector<uint64_t> weights,
                           std::vector<NodeId> universe,
                           const DenseIdMap& ranks,
                           const SnapshotOptions& opts);

  std::vector<size_t> offsets_;     // num_nodes + 1 entries
  std::vector<DenseId> neighbors_;  // per-vertex segments, ascending
  std::vector<uint64_t> weights_;   // parallel to neighbors_, or empty
  std::vector<NodeId> originals_;   // dense -> original, ascending
};

}  // namespace cuckoograph::analytics

#endif  // CUCKOOGRAPH_ANALYTICS_CSR_SNAPSHOT_H_
