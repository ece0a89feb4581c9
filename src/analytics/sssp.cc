#include "analytics/sssp.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace cuckoograph::analytics::sssp {

namespace {

constexpr uint64_t kInfinite = ~uint64_t{0};

// Bucket width in weight units. Any width settles the same distances; it
// only trades work per phase against phase count.
constexpr uint64_t kDelta = 8;

uint64_t WeightOf(const CsrSnapshot& graph, DenseId u, size_t slot) {
  return graph.has_weights() ? graph.Weights(u)[slot] : 1;
}

}  // namespace

// Each bucket batch is relaxed by the kernel lanes: a CAS-min loop settles
// dist[v] (relaxed order — the ParallelFor barrier publishes cross-batch,
// and the CAS itself arbitrates within a batch), and the winning lane
// queues v for its new bucket. A lane may read a tentative dist[u] that
// another lane is lowering in the same batch; the lowered value re-queues
// u, so the label-correcting fixed point — the unique shortest-distance
// vector — is unchanged.
KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts) {
  const size_t n = graph.num_nodes();
  auto dist = std::make_unique<std::atomic<uint64_t>[]>(n);
  for (size_t v = 0; v < n; ++v) {
    dist[v].store(kInfinite, std::memory_order_relaxed);
  }

  std::vector<std::vector<DenseId>> buckets;
  std::mutex buckets_mu;
  const auto push_locked = [&buckets](DenseId v, uint64_t d) {
    const size_t idx = static_cast<size_t>(d / kDelta);
    if (idx >= buckets.size()) buckets.resize(idx + 1);
    buckets[idx].push_back(v);
  };

  for (const DenseId s : ResolveSources(graph, sources)) {
    dist[s].store(0, std::memory_order_relaxed);
    push_locked(s, 0);
  }

  std::vector<DenseId> batch;
  for (size_t i = 0; i < buckets.size(); ++i) {
    // Relaxations may refill bucket i while it is being drained.
    while (!buckets[i].empty()) {
      batch.clear();
      batch.swap(buckets[i]);
      BudgetedParallelFor(
          opts.num_threads, opts.grain, 0, batch.size(),
          [&](size_t begin, size_t end) {
            // (vertex, settled distance) pairs this chunk won, merged into
            // the shared buckets once per chunk.
            std::vector<std::pair<DenseId, uint64_t>> won;
            for (size_t b = begin; b < end; ++b) {
              const DenseId u = batch[b];
              const uint64_t d = dist[u].load(std::memory_order_relaxed);
              if (d / kDelta != i) continue;  // settled in an earlier bucket
              const Span<const DenseId> neighbors = graph.Neighbors(u);
              for (size_t slot = 0; slot < neighbors.size(); ++slot) {
                const DenseId v = neighbors[slot];
                const uint64_t candidate = d + WeightOf(graph, u, slot);
                uint64_t current = dist[v].load(std::memory_order_relaxed);
                while (candidate < current) {
                  if (dist[v].compare_exchange_weak(
                          current, candidate, std::memory_order_relaxed)) {
                    won.emplace_back(v, candidate);
                    break;
                  }
                }
              }
            }
            if (!won.empty()) {
              std::lock_guard<std::mutex> lock(buckets_mu);
              for (const auto& [v, d] : won) push_locked(v, d);
            }
          });
    }
  }

  KernelResult result;
  result.per_node.assign(n, kUnreached);
  for (size_t v = 0; v < n; ++v) {
    const uint64_t d = dist[v].load(std::memory_order_relaxed);
    if (d == kInfinite) continue;
    result.per_node[v] = static_cast<double>(d);
    ++result.aggregate;
  }
  return result;
}

}  // namespace cuckoograph::analytics::sssp
