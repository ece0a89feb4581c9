// The optimistic (seqlock + epoch) read path of ShardedCuckooGraph:
// readers race writers that force every structural mutation the
// protocol must survive — TRANSFORMATION (inline slots promoted to an
// S-CHT chain), chain growth and merge rebuilds, L-CHT doubling and
// shrinking, and reverse-TRANSFORMATION (chains collapsing back to
// inline slots under deletions). Each stress test keeps a set of
// sentinel edges that are never mutated, so a racing reader has an
// exact oracle for every probe no matter how the writer interleaves.
// CI runs this binary under ThreadSanitizer as well (the seqlock probe
// functions are excluded from instrumentation; the protocol around them
// is not — see common/thread_annotations.h).
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "common/types.h"
#include "core/config.h"
#include "core/sharded_cuckoo_graph.h"
#include "gtest/gtest.h"

namespace cuckoograph {
namespace {

// Small tables + few shards: structural churn (rebuilds, growth) happens
// constantly and per-shard writer/reader collisions are frequent, which
// is exactly what the validation protocol has to absorb.
Config StressConfig(bool optimistic) {
  Config config;
  config.num_shards = 2;
  config.l_initial_buckets = 1;
  config.s_initial_buckets = 1;
  config.optimistic_reads = optimistic;
  return config;
}

constexpr NodeId kHubs = 8;        // sentinel sources 0..kHubs-1
constexpr NodeId kSentinelV = 0;   // (h, 0) is inserted once, never touched
constexpr NodeId kAbsentV = 1u << 20;  // never inserted anywhere

void InsertSentinels(ShardedCuckooGraph* graph) {
  for (NodeId h = 0; h < kHubs; ++h) {
    ASSERT_TRUE(graph->InsertEdge(h, kSentinelV));
  }
}

// A reader thread: probes sentinel-present and known-absent edges (plus
// degree and weight) until told to stop, checking every answer against
// the invariants the writer preserves. Always runs at least one full
// pass (a fast writer may finish before this thread is scheduled).
// Returns how many probes ran.
size_t ReaderLoop(const ShardedCuckooGraph& graph,
                  const std::atomic<bool>& stop) {
  size_t probes = 0;
  std::vector<Edge> batch;
  do {
    for (NodeId h = 0; h < kHubs; ++h) {
      EXPECT_TRUE(graph.QueryEdge(h, kSentinelV));
      EXPECT_FALSE(graph.QueryEdge(h, kAbsentV));
      EXPECT_EQ(graph.EdgeWeight(h, kSentinelV), 1u);
      EXPECT_GE(graph.OutDegree(h), 1u);  // the sentinel never leaves
      probes += 4;
    }
    // Batch path: kHubs pinned-present + kHubs never-present edges must
    // count exactly kHubs regardless of writer interleaving.
    batch.clear();
    for (NodeId h = 0; h < kHubs; ++h) {
      batch.push_back(Edge{h, kSentinelV});
      batch.push_back(Edge{h, kAbsentV});
    }
    EXPECT_EQ(graph.QueryEdges(Span<const Edge>(batch.data(),
                                                batch.size())),
              static_cast<size_t>(kHubs));
    probes += batch.size();
  } while (!stop.load(std::memory_order_acquire));
  return probes;
}

// Writer A: drives each hub's degree up past the inline threshold and
// far enough to append and merge chain tables (TRANSFORMATION + Table II
// growth), then back down to the sentinel alone (reverse-TRANSFORMATION
// and chain shrink), over and over.
void TransformChurnWriter(ShardedCuckooGraph* graph, int rounds,
                          NodeId fan) {
  for (int r = 0; r < rounds; ++r) {
    for (NodeId h = 0; h < kHubs; ++h) {
      for (NodeId v = 1; v <= fan; ++v) graph->InsertEdge(h, v);
    }
    for (NodeId h = 0; h < kHubs; ++h) {
      for (NodeId v = 1; v <= fan; ++v) graph->DeleteEdge(h, v);
    }
  }
}

// Writer B: floods fresh source vertices to force L-CHT doubling
// rebuilds, then removes them all so the shrink path rebuilds smaller —
// both ends retire the old bucket block through the epoch limbo.
void LTableChurnWriter(ShardedCuckooGraph* graph, int rounds,
                       NodeId vertices) {
  const NodeId base = 1u << 16;  // disjoint from hub sources
  for (int r = 0; r < rounds; ++r) {
    for (NodeId u = 0; u < vertices; ++u) {
      graph->InsertEdge(base + u, 1);
    }
    for (NodeId u = 0; u < vertices; ++u) {
      graph->DeleteEdge(base + u, 1);
    }
  }
}

TEST(OptimisticReadsTest, ReadersRaceTransformationStorm) {
  ShardedCuckooGraph graph(StressConfig(/*optimistic=*/true));
  InsertSentinels(&graph);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<size_t> probes(4, 0);
  for (size_t t = 0; t < probes.size(); ++t) {
    readers.emplace_back([&graph, &stop, &probes, t] {
      probes[t] = ReaderLoop(graph, stop);
    });
  }
  // Fan of 64 per hub: crosses the inline threshold (TRANSFORMATION),
  // appends chain tables, and triggers merge-and-double rebuilds.
  TransformChurnWriter(&graph, /*rounds=*/40, /*fan=*/64);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t p : probes) EXPECT_GT(p, 0u);
  // Quiesced end state: only the sentinels remain.
  EXPECT_EQ(graph.NumEdges(), static_cast<size_t>(kHubs));
  for (NodeId h = 0; h < kHubs; ++h) {
    EXPECT_EQ(graph.OutDegree(h), 1u);
  }
  const auto rp = graph.read_path_stats();
  EXPECT_GT(rp.optimistic + rp.locked, 0u);
}

TEST(OptimisticReadsTest, ReadersRaceReverseTransformationDeletes) {
  ShardedCuckooGraph graph(StressConfig(/*optimistic=*/true));
  InsertSentinels(&graph);
  // Start every hub above the inline threshold so the writer's first
  // act is deletion pressure that collapses chains back to inline.
  for (NodeId h = 0; h < kHubs; ++h) {
    for (NodeId v = 1; v <= 32; ++v) ASSERT_TRUE(graph.InsertEdge(h, v));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<size_t> probes(4, 0);
  for (size_t t = 0; t < probes.size(); ++t) {
    readers.emplace_back([&graph, &stop, &probes, t] {
      probes[t] = ReaderLoop(graph, stop);
    });
  }
  for (int r = 0; r < 60; ++r) {
    for (NodeId h = 0; h < kHubs; ++h) {
      for (NodeId v = 1; v <= 32; ++v) graph.DeleteEdge(h, v);
    }
    for (NodeId h = 0; h < kHubs; ++h) {
      for (NodeId v = 1; v <= 32; ++v) graph.InsertEdge(h, v);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t p : probes) EXPECT_GT(p, 0u);
  EXPECT_EQ(graph.NumEdges(), static_cast<size_t>(kHubs) * 33);
}

TEST(OptimisticReadsTest, ReadersRaceLTableRebuilds) {
  ShardedCuckooGraph graph(StressConfig(/*optimistic=*/true));
  InsertSentinels(&graph);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<size_t> probes(4, 0);
  for (size_t t = 0; t < probes.size(); ++t) {
    readers.emplace_back([&graph, &stop, &probes, t] {
      probes[t] = ReaderLoop(graph, stop);
    });
  }
  LTableChurnWriter(&graph, /*rounds=*/30, /*vertices=*/512);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t p : probes) EXPECT_GT(p, 0u);
  EXPECT_EQ(graph.NumEdges(), static_cast<size_t>(kHubs));
}

// One hub grows through every Table II append and merge, then shrinks
// back to inline slots through deletes, over and over; each step that
// changes the chain's geometry swaps in a new chain block and retires
// the old one. Readers probe the hub's present and absent neighbours
// meanwhile. The writer publishes how far it got (a phase generation
// plus a high-water mark), so a reader knows which answers are certain:
// during growth every neighbour below the mark is present, during the
// shrink every neighbour at or above the mark is absent. A reader keeps
// an answer only if the generation did not move across its probe.
TEST(OptimisticReadsTest, ReadersRaceHubChainBlockSwaps) {
  ShardedCuckooGraph graph(StressConfig(/*optimistic=*/true));
  constexpr NodeId kHub = 3;
  constexpr NodeId kPinned[2] = {1u << 24, (1u << 24) + 1};
  constexpr NodeId kFan = 1500;
  const auto churn = [](NodeId i) { return NodeId{10} + i; };
  for (const NodeId v : kPinned) ASSERT_TRUE(graph.InsertEdge(kHub, v));

  // Even generation: growth (churn(i) present for i < mark); odd:
  // shrink (churn(i) absent for i >= mark). It starts as an empty shrink.
  std::atomic<uint64_t> generation{1};
  std::atomic<NodeId> mark{0};
  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      SplitMix64 rng(static_cast<uint64_t>(t) + 1);
      started.fetch_add(1);
      do {
        for (const NodeId v : kPinned) EXPECT_TRUE(graph.QueryEdge(kHub, v));
        EXPECT_FALSE(graph.QueryEdge(kHub, kPinned[1] + 1));
        const uint64_t g1 = generation.load();
        const NodeId m = mark.load();
        const bool growing = (g1 & 1) == 0;
        NodeId i = 0;
        if (growing && m > 0) {
          i = rng.NextBelow(m);
        } else if (!growing && m < kFan) {
          i = m + rng.NextBelow(kFan - m);
        } else {
          continue;
        }
        const bool present = graph.QueryEdge(kHub, churn(i));
        if (generation.load() != g1) continue;
        EXPECT_EQ(present, growing) << "i=" << i << " mark=" << m;
        checked.fetch_add(1);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  while (started.load() < 3) std::this_thread::yield();
  for (int round = 0; round < 40; ++round) {
    mark.store(0);
    generation.fetch_add(1);  // even: growth
    for (NodeId i = 0; i < kFan; ++i) {
      ASSERT_TRUE(graph.InsertEdge(kHub, churn(i)));
      mark.store(i + 1);
    }
    generation.fetch_add(1);  // odd: shrink, churn(i) absent for i >= mark
    for (NodeId i = kFan; i-- > 0;) {
      ASSERT_TRUE(graph.DeleteEdge(kHub, churn(i)));
      mark.store(i);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(graph.OutDegree(kHub), 2u);
  const GraphStats st = graph.stats();
  EXPECT_GT(st.s.expansions, 0u);            // appends
  EXPECT_GT(st.s.merges, 0u);                // merge-and-double
  EXPECT_GT(st.reverse_transformations, 0u); // shrinks and the collapse
  EXPECT_EQ(st.num_chains, 0u);              // back on inline slots
}

// With no concurrent writer, every optimistic probe validates on the
// first try: the lock-free path must serve ALL reads and the locked
// fallback none. This is the test that proves the fast path actually
// runs (a broken seqlock that always failed validation would still pass
// the stress tests above — via the fallback).
TEST(OptimisticReadsTest, QuiescedReadsAreServedLockFree) {
  ShardedCuckooGraph graph(StressConfig(/*optimistic=*/true));
  InsertSentinels(&graph);

  const auto before = graph.read_path_stats();
  size_t reads = 0;
  for (NodeId h = 0; h < kHubs; ++h) {
    EXPECT_TRUE(graph.QueryEdge(h, kSentinelV));
    EXPECT_FALSE(graph.QueryEdge(h, kAbsentV));
    EXPECT_EQ(graph.OutDegree(h), 1u);
    EXPECT_EQ(graph.EdgeWeight(h, kSentinelV), 1u);
    reads += 4;
  }
  std::vector<Edge> batch;
  for (NodeId h = 0; h < kHubs; ++h) batch.push_back(Edge{h, kSentinelV});
  EXPECT_EQ(graph.QueryEdges(Span<const Edge>(batch.data(), batch.size())),
            batch.size());
  reads += batch.size();

  const auto after = graph.read_path_stats();
  EXPECT_EQ(after.optimistic - before.optimistic, reads);
  EXPECT_EQ(after.locked, before.locked);
}

// Config::optimistic_reads = false must force every read through the
// stripe lock — same answers, zero lock-free probes.
TEST(OptimisticReadsTest, DisabledKnobFallsBackToLockedReads) {
  ShardedCuckooGraph graph(StressConfig(/*optimistic=*/false));
  EXPECT_FALSE(graph.optimistic_reads());
  InsertSentinels(&graph);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<size_t> probes(2, 0);
  for (size_t t = 0; t < probes.size(); ++t) {
    readers.emplace_back([&graph, &stop, &probes, t] {
      probes[t] = ReaderLoop(graph, stop);
    });
  }
  TransformChurnWriter(&graph, /*rounds=*/10, /*fan=*/32);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t p : probes) EXPECT_GT(p, 0u);
  const auto rp = graph.read_path_stats();
  EXPECT_EQ(rp.optimistic, 0u);
  EXPECT_GT(rp.locked, 0u);
  EXPECT_EQ(graph.NumEdges(), static_cast<size_t>(kHubs));
}

}  // namespace
}  // namespace cuckoograph
