// ShardedCuckooGraph: the concurrent front-end over the core structure.
// The edge set is partitioned by a hash of the source vertex into
// Config::num_shards independent CuckooGraph shards, each guarded by its
// own reader-writer lock (striped locking: no global lock exists, threads
// touching different shards never contend). Every GraphStore v2 entry
// point is implemented; Capabilities().concurrent_mutations advertises
// that edge ops are thread-safe.
//
// Locking discipline (see docs/ARCHITECTURE.md):
//  - scalar edge ops lock exactly one shard (writers exclusively, readers
//    shared), keyed by the source vertex, and never hold two locks;
//  - batch ops group the span by shard first, then visit each shard once
//    under a single lock acquisition, so a batch pays lock traffic per
//    shard instead of per edge;
//  - whole-store accounting (NumEdges/NumNodes/MemoryBytes/stats) takes
//    the shard locks one at a time — each answer is exact only if no
//    writer runs concurrently, which is all a sum of moving counters can
//    promise;
//  - cursors own their ids: Neighbors(u) copies u's successors under its
//    shard's reader lock, and Nodes() materializes the vertex list taking
//    the shard locks one at a time, so draining either races no writer.
//    Neighbors(u) is a consistent copy of one adjacency; Nodes() (like
//    the accounting above) is exact only on a quiesced store.
//
// The discipline is machine-checked: each shard's CuckooGraph is
// CUCKOOGRAPH_GUARDED_BY its stripe lock, so any access path that does
// not hold the lock (shared for reads, exclusive for writes) is a
// compile error under clang's -Wthread-safety (the static-analysis CI
// job builds with it as -Werror).
//
// Optimistic reads (Config::optimistic_reads, default on): queries
// first attempt a lock-free probe under a per-shard seqlock. Writers
// bump the shard's sequence word around every mutation (odd = write in
// progress) while holding the stripe lock exclusively; a reader
// snapshots an even sequence, probes without the lock, and keeps the
// answer only if the sequence is unchanged afterwards — retrying a
// bounded number of times before falling back to the shared-lock path,
// so progress is always guaranteed. Memory reclamation is epoch-based:
// readers pin an epoch for the duration of a probe, and writers push
// replaced or dropped blocks (the L-CHT's, chains') onto the shard's
// limbo list, drained only once no pinned reader could still reach
// them (src/core/internal/epoch.h). The two lock-free entry helpers are
// the only functions excluded from the thread-safety analysis; the
// protocol they implement is documented at their definitions and
// stress-tested under TSan (tests/optimistic_reads_test.cc).
#ifndef CUCKOOGRAPH_CORE_SHARDED_CUCKOO_GRAPH_H_
#define CUCKOOGRAPH_CORE_SHARDED_CUCKOO_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/span.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/config.h"
#include "core/cuckoo_graph.h"
#include "core/graph_store.h"
#include "core/internal/epoch.h"

namespace cuckoograph {

class ShardedCuckooGraph : public GraphStore {
 public:
  ShardedCuckooGraph() : ShardedCuckooGraph(Config()) {}
  // Every shard is a CuckooGraph built from `config` (num_shards itself is
  // clamped to at least 1).
  explicit ShardedCuckooGraph(const Config& config);
  ~ShardedCuckooGraph() override;

  ShardedCuckooGraph(const ShardedCuckooGraph&) = delete;
  ShardedCuckooGraph& operator=(const ShardedCuckooGraph&) = delete;

  std::string_view name() const override { return "cuckoo-sharded"; }
  StoreCapabilities Capabilities() const override {
    StoreCapabilities caps;
    caps.deletions = true;
    caps.concurrent_mutations = true;
    return caps;
  }

  bool InsertEdge(NodeId u, NodeId v) override;
  bool QueryEdge(NodeId u, NodeId v) const override;
  bool DeleteEdge(NodeId u, NodeId v) override;
  // EdgeWeight is GraphStore's default (QueryEdge ? 1 : 0), so it takes
  // QueryEdge's optimistic-then-locked path and counts in
  // read_path_stats() the same way.

  size_t InsertEdges(Span<const Edge> edges) override;
  size_t QueryEdges(Span<const Edge> edges) const override;
  size_t DeleteEdges(Span<const Edge> edges) override;

  std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const override;
  std::unique_ptr<NeighborCursor> Nodes() const override;

  size_t OutDegree(NodeId u) const override;
  size_t NumEdges() const override;
  size_t NumNodes() const override;
  size_t MemoryBytes() const override;

  size_t num_shards() const { return shards_.size(); }

  // Which shard a source vertex routes to (tests and the scalability
  // bench use this to build shard-disjoint workloads).
  size_t ShardOf(NodeId u) const { return ShardIndex(u); }

  // Operation counters summed across shards.
  GraphStats stats() const;

  // How reads were actually served (summed across shards; relaxed
  // counters, exact only on a quiesced store). Tests use this to prove
  // the lock-free path runs; the scalability bench reports the fallback
  // rate alongside throughput.
  struct ReadPathStats {
    uint64_t optimistic = 0;  // served by a validated lock-free probe
    uint64_t locked = 0;      // served under the stripe lock
  };
  ReadPathStats read_path_stats() const;

  // Whether this instance attempts lock-free reads (Config knob).
  bool optimistic_reads() const { return optimistic_reads_; }

 private:
  // A shard: one core structure plus its stripe lock, cache-line aligned
  // so neighbouring shards' lock words never share a line. The core
  // structure is not thread-safe on its own, so it is guarded as a whole
  // by the stripe lock; the seqlock word and the epoch machinery bolt
  // the optimistic read path onto that discipline without changing it.
  // The shard is its own Reclaimer: the graph hands replaced
  // allocations back through Retire() while the writer holds mu.
  struct alignas(64) Shard final : internal::Reclaimer {
    explicit Shard(const Config& config) : graph(config) {
      // Constructors run before any concurrent access is possible, so
      // touching the guarded graph here is safe (and outside the
      // analysis' scope by design).
      if (config.optimistic_reads) graph.set_reclaimer(this);
    }
    ~Shard() override {
      // No reader can be in flight at destruction; free the backlog.
      limbo.DrainAll();
    }

    // Seqlock writer marks, called around every mutation. BeginWrite
    // makes the word odd before any store to the graph becomes visible
    // (the release fence keeps the mark ahead of the mutations);
    // EndWrite publishes the mutations with its release store of the
    // even value, then opportunistically drains the limbo list.
    void BeginWrite() CUCKOOGRAPH_REQUIRES(mu) {
      seq.store(seq.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
    }
    void EndWrite() CUCKOOGRAPH_REQUIRES(mu) {
      seq.store(seq.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
      if (!limbo.empty()) limbo.DrainUpTo(epochs.MinPinned());
    }

    // internal::Reclaimer — called by this shard's graph mid-mutation,
    // i.e. with mu held exclusively. The call arrives through the
    // un-annotated interface pointer, so the capability is re-anchored
    // with an assertion instead of a REQUIRES the base can't carry.
    // A long write (a bulk InsertEdges slice, such as a snapshot
    // restore) drains as it goes instead of holding every superseded
    // block until EndWrite. That is safe mid-write: the graph unlinks a
    // block before retiring it, and a reader pins before it probes.
    void Retire(void* block) override {
      mu.AssertHeld();
      limbo.Push(epochs.Advance(), block);
      if (limbo.size() >= kDrainAt) limbo.DrainUpTo(epochs.MinPinned());
    }
    static constexpr size_t kDrainAt = 32;

    mutable SharedMutex mu;
    CuckooGraph graph CUCKOOGRAPH_GUARDED_BY(mu);

    // The seqlock word (even = quiescent, odd = writer inside) on its
    // own cache line: readers spin-validate against it, and sharing a
    // line with the lock word would put writer lock traffic back on
    // the read path.
    alignas(64) std::atomic<uint64_t> seq{0};

    // Epoch slots are read-side state (mutable: readers pin from const
    // paths); the limbo list is writer-side state under mu.
    mutable internal::EpochManager epochs;
    internal::LimboList limbo CUCKOOGRAPH_GUARDED_BY(mu);

    // Read-path accounting (observability only, hence relaxed).
    mutable std::atomic<uint64_t> optimistic_reads_served{0};
    mutable std::atomic<uint64_t> locked_reads_served{0};
  };

  // Bounded validation retries before a read falls back to the lock.
  static constexpr int kOptimisticRetries = 3;

  // Entry helper #1 (scalar): one optimistic read attempt loop against a
  // shard. `probe(graph, validator)` must return true only after its
  // result validated cleanly. Returns false when the caller must take
  // the locked path (no epoch slot, writer interference every retry).
  //
  // NO_THREAD_SAFETY_ANALYSIS: this function reads shard.graph without
  // holding shard.mu — the entire point of the optimistic path. Safety
  // comes from the seqlock protocol instead of the lock: the probe only
  // trusts data that validated against the sequence word, and the epoch
  // pin keeps any storage a writer retires meanwhile alive. The
  // analysis cannot express that protocol, so it is suppressed HERE AND
  // IN THE SLICE VARIANT ONLY; every other access path stays checked.
  template <typename ProbeFn>
  static bool TryOptimisticRead(const Shard& shard, ProbeFn probe)
      CUCKOOGRAPH_NO_THREAD_SAFETY_ANALYSIS {
    internal::EpochGuard guard(&shard.epochs);
    if (!guard.pinned()) return false;
    for (int attempt = 0; attempt < kOptimisticRetries; ++attempt) {
      const uint64_t s1 = shard.seq.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // writer inside; retry
      const internal::SeqValidator sv{&shard.seq, s1};
      if (probe(shard.graph, sv)) return true;
    }
    return false;
  }

  // Entry helper #2 (batch): resolves a whole shard slice of QueryEdges
  // lock-free, all-or-nothing — any edge that exhausts its retries
  // makes the caller redo the slice under the shared lock. Same
  // NO_THREAD_SAFETY_ANALYSIS rationale as TryOptimisticRead above.
  static bool TryOptimisticQuerySlice(const Shard& shard,
                                      Span<const Edge> part,
                                      size_t* present)
      CUCKOOGRAPH_NO_THREAD_SAFETY_ANALYSIS;

  // Per-shard slices of the batch ops: the caller owns the shard lock
  // (exclusively for mutations, shared for queries) and the analysis
  // verifies it at every call site.
  static size_t InsertSlice(Shard& shard, Span<const Edge> part)
      CUCKOOGRAPH_REQUIRES(shard.mu);
  static size_t QuerySlice(const Shard& shard, Span<const Edge> part)
      CUCKOOGRAPH_REQUIRES_SHARED(shard.mu);
  static size_t DeleteSlice(Shard& shard, Span<const Edge> part)
      CUCKOOGRAPH_REQUIRES(shard.mu);

  size_t ShardIndex(NodeId u) const {
    // Fibonacci multiply-shift so consecutive source ids spread across
    // shards instead of clustering; reduced modulo the shard count.
    const uint64_t mixed = static_cast<uint64_t>(u) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(mixed >> 32) % shards_.size();
  }

  // Visits each shard's sub-span of `edges` (grouped by ShardIndex) once:
  // fn(shard, Span<const Edge>) under no lock — callers lock per shard.
  template <typename Fn>
  void GroupByShard(Span<const Edge> edges, Fn fn) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  bool optimistic_reads_ = true;
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_CORE_SHARDED_CUCKOO_GRAPH_H_
