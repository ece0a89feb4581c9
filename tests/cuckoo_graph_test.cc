// Unit tests for the core CuckooGraph store: round-trips, TRANSFORMATION,
// DENYLIST, reverse transformation, expansion from minimal size, the
// Theorem 1/2 stats counters, and a differential churn test of both cell
// types against std:: models across the tuning space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cuckoo_graph.h"
#include "core/weighted_cuckoo_graph.h"

namespace cuckoograph {
namespace {

TEST(CuckooGraphTest, InsertQueryRoundTrip) {
  CuckooGraph graph;
  EXPECT_TRUE(graph.InsertEdge(1, 2));
  EXPECT_TRUE(graph.InsertEdge(1, 3));
  EXPECT_TRUE(graph.InsertEdge(2, 1));
  EXPECT_TRUE(graph.QueryEdge(1, 2));
  EXPECT_TRUE(graph.QueryEdge(1, 3));
  EXPECT_TRUE(graph.QueryEdge(2, 1));
  EXPECT_FALSE(graph.QueryEdge(2, 3));
  EXPECT_FALSE(graph.QueryEdge(3, 1));  // direction matters
  EXPECT_EQ(graph.NumEdges(), 3u);
  EXPECT_EQ(graph.NumNodes(), 2u);
}

TEST(CuckooGraphTest, DuplicateInsertIsIdempotent) {
  CuckooGraph graph;
  EXPECT_TRUE(graph.InsertEdge(7, 8));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(graph.InsertEdge(7, 8));
  }
  EXPECT_EQ(graph.NumEdges(), 1u);
  EXPECT_EQ(graph.OutDegree(7), 1u);
}

TEST(CuckooGraphTest, DeleteRemovesEdgeAndEmptyVertex) {
  CuckooGraph graph;
  graph.InsertEdge(1, 2);
  graph.InsertEdge(1, 3);
  EXPECT_TRUE(graph.DeleteEdge(1, 2));
  EXPECT_FALSE(graph.QueryEdge(1, 2));
  EXPECT_TRUE(graph.QueryEdge(1, 3));
  EXPECT_EQ(graph.NumEdges(), 1u);
  EXPECT_FALSE(graph.DeleteEdge(1, 2));  // already gone
  EXPECT_FALSE(graph.DeleteEdge(9, 9));  // never existed
  EXPECT_TRUE(graph.DeleteEdge(1, 3));
  EXPECT_EQ(graph.NumEdges(), 0u);
  EXPECT_EQ(graph.NumNodes(), 0u);
  EXPECT_EQ(graph.OutDegree(1), 0u);
}

TEST(CuckooGraphTest, TransformationAtInlineThreshold) {
  CuckooGraph graph;
  for (NodeId v = 0; v < CuckooGraph::kInlineSlots; ++v) {
    graph.InsertEdge(1, v + 10);
  }
  // 2R neighbours still fit inline: no chain yet.
  EXPECT_TRUE(graph.SChainLengths(1).empty());
  EXPECT_EQ(graph.stats().num_chains, 0u);

  graph.InsertEdge(1, 100);  // the (2R+1)-th neighbour triggers it
  EXPECT_FALSE(graph.SChainLengths(1).empty());
  EXPECT_EQ(graph.stats().num_chains, 1u);
  EXPECT_EQ(graph.stats().transformations, 1u);
  EXPECT_EQ(graph.OutDegree(1), 7u);
  for (NodeId v = 0; v < CuckooGraph::kInlineSlots; ++v) {
    EXPECT_TRUE(graph.QueryEdge(1, v + 10));
  }
  EXPECT_TRUE(graph.QueryEdge(1, 100));
}

TEST(CuckooGraphTest, ChainLengthsFollowTableTwoSequence) {
  Config config;
  config.s_initial_buckets = 2;  // "n" in Table II
  CuckooGraph graph(config);
  std::vector<std::vector<size_t>> states;
  std::vector<size_t> last;
  for (NodeId v = 0; v < 4'000'000 && states.size() < 6; ++v) {
    graph.InsertEdge(1, v + 100);
    std::vector<size_t> lengths = graph.SChainLengths(1);
    if (lengths.empty() || lengths == last) continue;
    last = lengths;
    states.push_back(std::move(lengths));
  }
  const std::vector<std::vector<size_t>> expected = {
      {2}, {2, 1}, {2, 1, 1}, {4, 2}, {4, 2, 2}, {8, 4}};
  EXPECT_EQ(states, expected);
}

TEST(CuckooGraphTest, SingleTableChainsRespectMaxChainTables) {
  Config config;
  config.max_chain_tables = 1;  // R = 1: merges must not append a second
  CuckooGraph graph(config);
  for (NodeId v = 0; v < 5'000; ++v) graph.InsertEdge(1, v + 10);
  EXPECT_EQ(graph.SChainLengths(1).size(), 1u);
  for (NodeId v = 0; v < 5'000; ++v) {
    ASSERT_TRUE(graph.QueryEdge(1, v + 10)) << v;
  }
}

TEST(CuckooGraphTest, ExpansionFromMinimalSize) {
  Config config;
  config.l_initial_buckets = 1;
  config.s_initial_buckets = 1;
  CuckooGraph graph(config);
  const NodeId n = 10'000;
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_TRUE(graph.InsertEdge(u, u + 1));
  }
  EXPECT_EQ(graph.NumEdges(), static_cast<size_t>(n));
  EXPECT_EQ(graph.NumNodes(), static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_TRUE(graph.QueryEdge(u, u + 1)) << u;
  }
  const GraphStats st = graph.stats();
  EXPECT_GT(st.l.expansions, 0u);
  EXPECT_GT(st.l.rehash_moves, 0u);
}

TEST(CuckooGraphTest, StatsCountersAreSane) {
  Config config;
  config.l_initial_buckets = 1;
  CuckooGraph graph(config);
  const NodeId n = 20'000;
  for (NodeId u = 0; u < n; ++u) graph.InsertEdge(u, u + 1);
  const GraphStats st = graph.stats();
  // One direct placement per vertex.
  EXPECT_EQ(st.l.insert_attempts, static_cast<uint64_t>(n));
  // Theorem 1: insertions per item stay far below T.
  const double placements =
      static_cast<double>(st.l.insert_attempts + st.l.rehash_moves);
  const double per_item =
      (placements + static_cast<double>(st.l.kicks)) / placements;
  EXPECT_LT(per_item, 1.5);
  // Theorem 2: amortized dollars per edge is bounded by 3.
  EXPECT_LE(placements / static_cast<double>(n), 3.0);
}

TEST(CuckooGraphTest, ForEachNeighborVisitsExactlyTheNeighbors) {
  CuckooGraph graph;
  std::set<NodeId> expected;
  for (NodeId v = 0; v < 500; ++v) {
    graph.InsertEdge(42, v * 3 + 1);
    expected.insert(v * 3 + 1);
  }
  std::set<NodeId> seen;
  size_t visits = 0;
  graph.ForEachNeighbor(42, [&](NodeId v) {
    seen.insert(v);
    ++visits;
  });
  EXPECT_EQ(visits, expected.size());  // no duplicates
  EXPECT_EQ(seen, expected);
  graph.ForEachNeighbor(999, [&](NodeId) { FAIL(); });
}

TEST(CuckooGraphTest, ChurnMatchesReferenceModel) {
  CuckooGraph graph;
  std::set<std::pair<NodeId, NodeId>> model;
  SplitMix64 rng(1234);
  for (int i = 0; i < 50'000; ++i) {
    const NodeId u = rng.NextBelow(64);
    const NodeId v = rng.NextBelow(512);
    if (rng.NextBelow(3) == 0) {
      EXPECT_EQ(graph.DeleteEdge(u, v), model.erase({u, v}) > 0);
    } else {
      EXPECT_EQ(graph.InsertEdge(u, v), model.insert({u, v}).second);
    }
  }
  EXPECT_EQ(graph.NumEdges(), model.size());
  for (const auto& [u, v] : model) {
    ASSERT_TRUE(graph.QueryEdge(u, v)) << u << "->" << v;
  }
}

TEST(CuckooGraphTest, DisablingInlineSlotsChainsEveryVertex) {
  Config config;
  config.enable_inline_slots = false;
  CuckooGraph graph(config);
  for (NodeId u = 0; u < 100; ++u) graph.InsertEdge(u, u + 1);
  EXPECT_EQ(graph.stats().num_chains, 100u);
  for (NodeId u = 0; u < 100; ++u) {
    EXPECT_TRUE(graph.QueryEdge(u, u + 1));
    EXPECT_FALSE(graph.SChainLengths(u).empty());
  }
}

TEST(CuckooGraphTest, ReverseTransformCollapsesChain) {
  CuckooGraph graph;
  for (NodeId v = 0; v < 200; ++v) graph.InsertEdge(5, v + 10);
  ASSERT_FALSE(graph.SChainLengths(5).empty());
  const size_t peak_memory = graph.MemoryBytes();
  for (NodeId v = 3; v < 200; ++v) graph.DeleteEdge(5, v + 10);
  // Degree is back under 2R: the chain collapsed to inline slots.
  EXPECT_TRUE(graph.SChainLengths(5).empty());
  EXPECT_EQ(graph.stats().num_chains, 0u);
  EXPECT_GT(graph.stats().reverse_transformations, 0u);
  EXPECT_LT(graph.MemoryBytes(), peak_memory);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_TRUE(graph.QueryEdge(5, v + 10));
  }
  EXPECT_EQ(graph.OutDegree(5), 3u);
}

TEST(CuckooGraphTest, ReverseTransformOffRetainsChain) {
  Config config;
  config.enable_reverse_transform = false;
  CuckooGraph graph(config);
  for (NodeId v = 0; v < 200; ++v) graph.InsertEdge(5, v + 10);
  for (NodeId v = 3; v < 200; ++v) graph.DeleteEdge(5, v + 10);
  EXPECT_FALSE(graph.SChainLengths(5).empty());
  EXPECT_EQ(graph.stats().reverse_transformations, 0u);
  EXPECT_EQ(graph.OutDegree(5), 3u);
}

TEST(CuckooGraphTest, DenyListDisabledStaysCorrect) {
  Config config;
  config.enable_deny_list = false;
  config.l_initial_buckets = 1;
  config.s_initial_buckets = 1;
  CuckooGraph graph(config);
  for (NodeId u = 0; u < 5'000; ++u) {
    graph.InsertEdge(u % 50, u + 100);  // 50 vertices, growing chains
  }
  for (NodeId u = 0; u < 5'000; ++u) {
    ASSERT_TRUE(graph.QueryEdge(u % 50, u + 100)) << u;
  }
}

TEST(CuckooGraphTest, MemoryShrinksAfterMassDeletion) {
  CuckooGraph graph;
  std::vector<Edge> edges;
  SplitMix64 rng(77);
  for (int i = 0; i < 20'000; ++i) {
    edges.push_back(Edge{rng.NextBelow(2'000), rng.NextBelow(100'000)});
  }
  for (const Edge& e : edges) graph.InsertEdge(e.u, e.v);
  const size_t peak = graph.MemoryBytes();
  for (const Edge& e : edges) graph.DeleteEdge(e.u, e.v);
  EXPECT_EQ(graph.NumEdges(), 0u);
  EXPECT_EQ(graph.NumNodes(), 0u);
  EXPECT_LT(graph.MemoryBytes(), peak / 4);
}

TEST(CuckooGraphTest, ConfigIsNormalized) {
  Config config;
  config.l_initial_buckets = 0;
  config.cells_per_bucket = 0;
  config.max_kicks = -1;
  config.expand_threshold = 7.0;
  CuckooGraph graph(config);
  EXPECT_GE(graph.config().l_initial_buckets, 1u);
  EXPECT_GE(graph.config().cells_per_bucket, 1);
  EXPECT_GE(graph.config().max_kicks, 1);
  EXPECT_LE(graph.config().expand_threshold, 0.95);
  graph.InsertEdge(1, 2);
  EXPECT_TRUE(graph.QueryEdge(1, 2));
}

TEST(CuckooGraphTest, SelfLoopsAndExtremeIdsWork) {
  CuckooGraph graph;
  const NodeId max_id = 0xffffffffu;
  EXPECT_TRUE(graph.InsertEdge(0, 0));
  EXPECT_TRUE(graph.InsertEdge(max_id, max_id));
  EXPECT_TRUE(graph.InsertEdge(max_id, 0));
  EXPECT_TRUE(graph.QueryEdge(0, 0));
  EXPECT_TRUE(graph.QueryEdge(max_id, max_id));
  EXPECT_TRUE(graph.QueryEdge(max_id, 0));
  EXPECT_TRUE(graph.DeleteEdge(0, 0));
  EXPECT_FALSE(graph.QueryEdge(0, 0));
}


// ---- Differential churn ----------------------------------------------------
//
// Seeded random inserts, deletes, queries and Neighbors() reads against a
// std::set model (a std::map of arrival counts for the weighted store),
// over every combination of d, T, R, denylist_limit, inline slots and the
// reverse transformation. Chains start at one bucket and two hub sources
// take most of the traffic, so chains append, merge, park in the
// denylist, shrink and collapse back to inline slots; the counters assert
// that those paths ran. Ids include 0 and ~0u.

std::vector<Config> ChurnConfigs() {
  std::vector<Config> configs;
  for (const int d : {1, 8, 32}) {
    for (const int t : {1, 250}) {
      for (const int r : {1, 3}) {
        for (const int deny : {0, 8}) {
          for (const bool inline_slots : {false, true}) {
            for (const bool reverse : {false, true}) {
              Config config;
              config.l_initial_buckets = 1;
              config.s_initial_buckets = 1;
              config.cells_per_bucket = d;
              config.max_kicks = t;
              config.max_chain_tables = r;
              config.denylist_limit = deny;
              config.enable_inline_slots = inline_slots;
              config.enable_reverse_transform = reverse;
              configs.push_back(config);
            }
          }
        }
      }
    }
  }
  return configs;
}

std::string Describe(const Config& c) {
  return "d=" + std::to_string(c.cells_per_bucket) +
         " T=" + std::to_string(c.max_kicks) +
         " R=" + std::to_string(c.max_chain_tables) +
         " deny=" + std::to_string(c.denylist_limit) +
         " inline=" + std::to_string(c.enable_inline_slots) +
         " reverse=" + std::to_string(c.enable_reverse_transform);
}

// Distinct ids over the whole 32-bit range: index 0 is id 0, index 1 is
// ~0u, the rest are spread by an odd multiplier (a bijection mod 2^32).
NodeId ChurnId(uint64_t index) {
  if (index == 0) return 0;
  if (index == 1) return ~NodeId{0};
  return static_cast<NodeId>(index * 2654435761u);
}

constexpr uint64_t kChurnSources = 8;
constexpr uint64_t kChurnTargets = 600;

// Two hubs (ids 0 and ~0u) draw half the traffic between them.
NodeId PickSource(SplitMix64* rng) {
  return ChurnId(rng->NextBelow(2) == 0 ? rng->NextBelow(2)
                                        : rng->NextBelow(kChurnSources));
}

// The model: distinct edges with their arrival counts (1 per insert in
// the unweighted store, where the count is not observable).
using ChurnModel = std::map<std::pair<NodeId, NodeId>, uint64_t>;

template <typename Store>
void CheckAgainstModel(const Store& store, const ChurnModel& model) {
  ASSERT_EQ(store.NumEdges(), model.size());
  std::map<NodeId, std::vector<NodeId>> expected;
  for (const auto& [edge, count] : model) {
    expected[edge.first].push_back(edge.second);
  }
  ASSERT_EQ(store.NumNodes(), expected.size());
  for (uint64_t i = 0; i < kChurnSources; ++i) {
    const NodeId u = ChurnId(i);
    std::vector<NodeId> seen;
    store.ForEachNeighbor(u, [&seen](NodeId v) { seen.push_back(v); });
    std::sort(seen.begin(), seen.end());
    const auto it = expected.find(u);
    const std::vector<NodeId> want =
        it == expected.end() ? std::vector<NodeId>{} : it->second;
    ASSERT_EQ(seen, want) << "u=" << u;
    ASSERT_EQ(store.OutDegree(u), want.size()) << "u=" << u;
  }
}

// Runs the churn on one store; *stats receives its final counters.
template <typename Store>
void RunChurn(const Config& config, uint64_t seed, GraphStats* stats) {
  constexpr bool kWeighted = std::is_same_v<Store, WeightedCuckooGraph>;
  Store store(config);
  ChurnModel model;
  SplitMix64 rng(seed);
  // A growth phase then a deletion-heavy phase (percent of inserts and
  // deletes; the rest are queries).
  const int phases[2][2] = {{75, 15}, {15, 75}};
  for (const auto& phase : phases) {
    for (int op = 0; op < 3000; ++op) {
      const NodeId u = PickSource(&rng);
      const NodeId v = ChurnId(rng.NextBelow(kChurnTargets));
      const auto roll = static_cast<int>(rng.NextBelow(100));
      if (roll < phase[0]) {
        const bool fresh = model.count({u, v}) == 0;
        const uint64_t count = ++model[{u, v}];
        if constexpr (kWeighted) {
          ASSERT_EQ(store.AddEdge(u, v), count);
        } else {
          (void)count;
          ASSERT_EQ(store.InsertEdge(u, v), fresh);
        }
      } else if (roll < phase[0] + phase[1]) {
        ASSERT_EQ(store.DeleteEdge(u, v), model.erase({u, v}) == 1);
      } else {
        const auto it = model.find({u, v});
        ASSERT_EQ(store.QueryEdge(u, v), it != model.end());
        if constexpr (kWeighted) {
          ASSERT_EQ(store.QueryWeight(u, v),
                    it == model.end() ? 0 : it->second);
        }
      }
      if (op % 500 == 499) CheckAgainstModel(store, model);
    }
  }
  // Drain: delete every remaining edge, the hubs' last.
  while (!model.empty()) {
    const auto edge = model.begin()->first;
    ASSERT_TRUE(store.DeleteEdge(edge.first, edge.second));
    ASSERT_FALSE(store.QueryEdge(edge.first, edge.second));
    model.erase(model.begin());
  }
  CheckAgainstModel(store, model);
  *stats = store.stats();
}

template <typename Store>
void RunChurnAcrossConfigs() {
  GraphStats total;
  uint64_t seed = 1;
  for (const Config& config : ChurnConfigs()) {
    SCOPED_TRACE(Describe(config));
    GraphStats st;
    RunChurn<Store>(config, seed++, &st);
    if (testing::Test::HasFatalFailure()) return;
    // Every config reaches the Table II merge and, with the reverse
    // transformation on, shrinks or collapses chains under deletes.
    EXPECT_GT(st.s.merges, 0u);
    if (config.enable_reverse_transform) {
      EXPECT_GT(st.reverse_transformations, 0u);
    }
    EXPECT_EQ(st.num_chains, 0u);  // the drain freed every chain
    total.s.expansions += st.s.expansions;
    total.s.merges += st.s.merges;
    total.transformations += st.transformations;
    total.reverse_transformations += st.reverse_transformations;
    total.denylist_parks += st.denylist_parks;
  }
  EXPECT_GT(total.s.expansions, 0u);
  EXPECT_GT(total.transformations, 0u);
  EXPECT_GT(total.denylist_parks, 0u);
}

TEST(CuckooGraphTest, DifferentialChurnAcrossConfigs) {
  RunChurnAcrossConfigs<CuckooGraph>();
}

TEST(CuckooGraphTest, WeightedDifferentialChurnAcrossConfigs) {
  RunChurnAcrossConfigs<WeightedCuckooGraph>();
}

}  // namespace
}  // namespace cuckoograph
