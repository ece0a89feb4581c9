// The analytics engine's budget sweep. Every kernel runs at thread
// budgets {1, 2, 4, hardware} on deterministic graph families (path,
// star, two-component, Erdős–Rényi, preferential attachment, and a
// 2k-vertex family with the analytics benchmark's 1.8 endpoint skew),
// over every factory scheme, and is checked against the independent
// naive models of analytics_reference.h:
//
//   - BFS depths, SSSP distances, CC partitions, TC counts, LCC scores:
//     exact equality;
//   - BFS parent trees: validity-checked (the contract names no
//     particular tree);
//   - PageRank and betweenness: <= 1e-9 per node (the models sum in
//     their own order).
//
// The snapshot side: CsrSnapshot must hold exactly the model's vertex
// universe, ascending adjacency and accumulated weights at every budget
// (also on id sets built to stress the builder's id table: 0 and ~0u,
// ids sparse over 32 bits, sink-only targets, 120k distinct ids), be
// byte-identical across budgets, and must still throw std::logic_error
// when the store's edge count drifts mid-build. The suite name is wired
// into the TSan CI regex, so every claim here is also raced.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/bfs.h"
#include "analytics/connected_components.h"
#include "analytics/csr_snapshot.h"
#include "analytics/kernel.h"
#include "analytics/lcc.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/triangle_count.h"
#include "analytics_reference.h"
#include "baselines/hash_map_store.h"
#include "baselines/store_factory.h"
#include "common/rng.h"
#include "common/types.h"
#include "gtest/gtest.h"

namespace cuckoograph {
namespace {

using analytics::CsrSnapshot;
using analytics::DenseId;
using analytics::KernelOptions;
using analytics::KernelResult;
using analytics::kUnreached;
using reference::BuildRef;
using reference::RefGraph;
using reference::SuccessorsOf;

// ---- Graph families -------------------------------------------------------

struct GraphCase {
  std::string name;
  std::vector<Edge> stream;  // may contain duplicate arrivals
  std::vector<NodeId> sources;
};

// Ids are spread out (i * 7 + 3) so the dense remap is always exercised,
// and every stream repeats its first edge so weighted schemes carry a
// weight-2 edge through the differential runs.
std::vector<GraphCase> DifferentialCases() {
  const auto id = [](uint64_t i) { return static_cast<NodeId>(i * 7 + 3); };
  std::vector<GraphCase> cases;

  {
    GraphCase path{"path", {}, {id(0), id(40)}};
    for (uint64_t i = 0; i + 1 < 64; ++i) {
      path.stream.push_back(Edge{id(i), id(i + 1)});
    }
    cases.push_back(std::move(path));
  }
  {
    // Hub <-> 40 leaves: the dense hub frontier forces the BFS bottom-up
    // switch (scout count ~ 41 against 80 edges).
    GraphCase star{"star", {}, {id(0), id(7)}};
    for (uint64_t leaf = 1; leaf <= 40; ++leaf) {
      star.stream.push_back(Edge{id(0), id(leaf)});
      star.stream.push_back(Edge{id(leaf), id(0)});
    }
    cases.push_back(std::move(star));
  }
  {
    // A 20-ring and a disjoint bidirectional 8-clique: unreached vertices
    // stay kUnreached at every budget.
    GraphCase two{"two_components", {}, {id(0), id(100)}};
    for (uint64_t i = 0; i < 20; ++i) {
      two.stream.push_back(Edge{id(i), id((i + 1) % 20)});
    }
    for (uint64_t a = 100; a < 108; ++a) {
      for (uint64_t b = 100; b < 108; ++b) {
        if (a != b) two.stream.push_back(Edge{id(a), id(b)});
      }
    }
    cases.push_back(std::move(two));
  }
  {
    // Erdős–Rényi n=120, p≈0.03, deterministic seed; plus a handful of
    // duplicate arrivals so weighted schemes accumulate.
    GraphCase er{"erdos_renyi", {}, {id(1), id(60), id(119)}};
    SplitMix64 rng(0xE4D05u);
    for (uint64_t u = 0; u < 120; ++u) {
      for (uint64_t v = 0; v < 120; ++v) {
        if (u != v && rng.NextDouble() < 0.03) {
          er.stream.push_back(Edge{id(u), id(v)});
        }
      }
    }
    for (size_t i = 0; i < 10 && i < er.stream.size(); ++i) {
      er.stream.push_back(er.stream[i * 3 % er.stream.size()]);
    }
    cases.push_back(std::move(er));
  }
  {
    // Preferential-attachment skew: vertex i attaches to min of two
    // uniform draws below i, biasing edges toward early (high-degree)
    // vertices — the power-law-ish family.
    GraphCase pa{"power_law", {}, {id(0), id(3), id(149)}};
    SplitMix64 rng(0x9A11u);
    for (uint64_t i = 1; i < 150; ++i) {
      for (int k = 0; k < 2; ++k) {
        const uint64_t a = rng.NextBelow64(i);
        const uint64_t b = rng.NextBelow64(i);
        const uint64_t target = a < b ? a : b;
        pa.stream.push_back(Edge{id(i), id(target)});
        pa.stream.push_back(Edge{id(target), id(i)});
      }
    }
    cases.push_back(std::move(pa));
  }
  {
    // Shaped like the analytics benchmark's graph: 20k arrivals whose
    // endpoints are both drawn over 2k ids with that generator's skew
    // (CDF (k / n)^(1 / 1.8)), so a few hubs carry most edges, and self
    // loops and duplicate arrivals occur naturally.
    GraphCase skew{"skew_1_8", {}, {id(0), id(1), id(57)}};
    SplitMix64 rng(0x5CE3u);
    const auto pick = [&rng] {
      const double r = std::pow(rng.NextDouble(), 1.8);
      return std::min<uint64_t>(static_cast<uint64_t>(r * 2000.0), 1999);
    };
    for (int i = 0; i < 20000; ++i) {
      const uint64_t u = pick();
      const uint64_t v = pick();
      skew.stream.push_back(Edge{id(u), id(v)});
    }
    cases.push_back(std::move(skew));
  }

  for (auto& c : cases) {
    c.stream.push_back(c.stream.front());  // duplicate arrival
    c.sources.push_back(424242);           // absent id, must be ignored
  }
  return cases;
}

// 1, 2, 4, and whatever the host offers.
std::vector<size_t> ThreadBudgets() {
  std::vector<size_t> budgets{1, 2, 4};
  const size_t hw = std::thread::hardware_concurrency();
  if (hw > 0) budgets.push_back(hw);
  std::sort(budgets.begin(), budgets.end());
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());
  return budgets;
}

// A tiny grain so even the small families split into many chunks.
KernelOptions OptsFor(size_t threads) {
  KernelOptions opts;
  opts.num_threads = threads;
  opts.grain = 4;
  return opts;
}

// The BFS tree validity checker: every tree the contract allows
// satisfies this.
void CheckBfsTree(const CsrSnapshot& graph, const KernelResult& bfs_result,
                  const std::vector<DenseId>& parents,
                  const std::vector<NodeId>& sources) {
  ASSERT_EQ(parents.size(), graph.num_nodes());
  std::set<DenseId> source_set;
  for (const NodeId s : sources) {
    const DenseId dense = graph.ToDense(s);
    if (dense != CsrSnapshot::kAbsent) source_set.insert(dense);
  }
  for (DenseId v = 0; v < graph.num_nodes(); ++v) {
    const double depth = bfs_result.per_node[v];
    if (depth == kUnreached) {
      EXPECT_EQ(parents[v], analytics::bfs::kNoParent) << v;
      continue;
    }
    if (depth == 0.0) {
      EXPECT_EQ(parents[v], v) << v;
      EXPECT_EQ(source_set.count(v), 1u) << v;
      continue;
    }
    const DenseId p = parents[v];
    ASSERT_NE(p, analytics::bfs::kNoParent) << v;
    ASSERT_LT(p, graph.num_nodes()) << v;
    EXPECT_TRUE(graph.HasEdge(p, v))
        << "parent edge " << p << "->" << v << " missing";
    EXPECT_EQ(bfs_result.per_node[p], depth - 1.0)
        << "parent depth of " << v;
  }
}

// ---- Kernel budget sweep --------------------------------------------------

class ParallelKernelsTest : public ::testing::TestWithParam<std::string> {
 protected:
  // Loads the case into this scheme's store, snapshots it with weights,
  // and builds the matching reference model.
  void Load(const GraphCase& c) {
    store_ = MakeStoreByName(GetParam());
    store_->InsertEdges(c.stream);
    CsrSnapshot::Options opts;
    opts.with_weights = true;
    snapshot_ = CsrSnapshot::FromStore(*store_, opts);
    ref_ = BuildRef(c.stream, store_->Capabilities().weighted);
    ASSERT_EQ(snapshot_.num_nodes(), ref_.nodes.size());
    ASSERT_EQ(snapshot_.num_edges(), ref_.edges.size());
  }

  // Compares every vertex's value with the model's: exactly when
  // `tolerance` is 0, else within it.
  void ExpectPerNode(const KernelResult& got,
                     const std::map<NodeId, double>& want,
                     double tolerance = 0.0) const {
    ASSERT_EQ(got.per_node.size(), ref_.nodes.size());
    for (const NodeId n : ref_.nodes) {
      const double value = got.per_node[snapshot_.ToDense(n)];
      if (tolerance == 0.0) {
        EXPECT_EQ(value, want.at(n)) << n;
      } else {
        EXPECT_NEAR(value, want.at(n), tolerance) << n;
      }
    }
  }

  // Source ids present in the snapshot, deduplicated.
  std::set<NodeId> PresentSources(const GraphCase& c) const {
    std::set<NodeId> present;
    for (const NodeId s : c.sources) {
      if (snapshot_.ToDense(s) != CsrSnapshot::kAbsent) present.insert(s);
    }
    return present;
  }

  std::unique_ptr<GraphStore> store_;
  CsrSnapshot snapshot_;
  RefGraph ref_;
};

TEST_P(ParallelKernelsTest, BfsDepthsMatchSequentialAtEveryBudget) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const Span<const NodeId> sources(c.sources);
    const std::map<NodeId, double> expected =
        reference::NaiveBfs(ref_, c.sources);
    uint64_t reached = 0;
    for (const auto& [n, d] : expected) reached += d != kUnreached;
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::vector<DenseId> parents;
      const KernelResult got = analytics::bfs::Run(
          snapshot_, sources, OptsFor(threads), &parents);
      ExpectPerNode(got, expected);
      EXPECT_EQ(got.aggregate, reached);
      CheckBfsTree(snapshot_, got, parents, c.sources);
    }
  }
}

TEST_P(ParallelKernelsTest, SsspDistancesMatchDijkstraAtEveryBudget) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const Span<const NodeId> sources(c.sources);
    const std::map<NodeId, double> expected =
        reference::NaiveSssp(ref_, c.sources);
    uint64_t reached = 0;
    for (const auto& [n, d] : expected) reached += d != kUnreached;
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const KernelResult got =
          analytics::sssp::Run(snapshot_, sources, OptsFor(threads));
      ExpectPerNode(got, expected);
      EXPECT_EQ(got.aggregate, reached);
    }
  }
}

TEST_P(ParallelKernelsTest, PageRankScoresStayWithinTolerance) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const std::map<NodeId, double> expected =
        reference::NaivePageRank(ref_, 100, 0.85);
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const KernelResult got =
          analytics::pagerank::Run(snapshot_, {}, OptsFor(threads));
      EXPECT_EQ(got.aggregate, 100u);
      ExpectPerNode(got, expected, 1e-9);
    }
  }
}

TEST_P(ParallelKernelsTest, LccAndTriangleCountsAreBitIdentical) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const Span<const NodeId> sources(c.sources);
    const Span<const NodeId> sweep;
    // Sweeps score every vertex; a source run scores only the present
    // sources and leaves every other vertex at 0.
    std::map<NodeId, double> lcc_sweep, lcc_src, tc_sweep, tc_src;
    uint64_t tc_sweep_total = 0;
    for (const NodeId n : ref_.nodes) {
      lcc_sweep[n] = reference::NaiveLcc(ref_, n);
      const uint64_t cycles = reference::NaiveTriangles(ref_, n);
      tc_sweep[n] = static_cast<double>(cycles);
      tc_sweep_total += cycles;
      lcc_src[n] = 0.0;
      tc_src[n] = 0.0;
    }
    const std::set<NodeId> present = PresentSources(c);
    uint64_t tc_src_total = 0;
    for (const NodeId s : present) {
      lcc_src[s] = lcc_sweep[s];
      tc_src[s] = tc_sweep[s];
      tc_src_total += static_cast<uint64_t>(tc_sweep[s]);
    }
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const KernelOptions opts = OptsFor(threads);
      const KernelResult lcc_all = analytics::lcc::Run(snapshot_, sweep, opts);
      ExpectPerNode(lcc_all, lcc_sweep);
      EXPECT_EQ(lcc_all.aggregate, ref_.nodes.size());
      const KernelResult lcc_some =
          analytics::lcc::Run(snapshot_, sources, opts);
      ExpectPerNode(lcc_some, lcc_src);
      EXPECT_EQ(lcc_some.aggregate, present.size());
      const KernelResult tc_all =
          analytics::triangle_count::Run(snapshot_, sweep, opts);
      ExpectPerNode(tc_all, tc_sweep);
      EXPECT_EQ(tc_all.aggregate, tc_sweep_total);
      const KernelResult tc_some =
          analytics::triangle_count::Run(snapshot_, sources, opts);
      ExpectPerNode(tc_some, tc_src);
      EXPECT_EQ(tc_some.aggregate, tc_src_total);
    }
  }
}

TEST_P(ParallelKernelsTest, SequentialOnlyKernelsIgnoreTheThreadBudget) {
  // CC (Tarjan) and BC (Brandes) run sequentially at any budget; their
  // results must match the models whatever the options say. BC runs the
  // pivot approximation over the case's sources, which the model sums
  // from the pair-dependency definition.
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const std::map<NodeId, NodeId> components =
        reference::NaiveSccRepresentatives(ref_);
    const std::map<NodeId, double> centrality =
        reference::NaiveBetweenness(ref_, c.sources);
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const KernelOptions opts = OptsFor(threads);
      reference::ExpectSccPartition(
          snapshot_,
          analytics::connected_components::Run(snapshot_, {}, opts),
          components);
      const KernelResult bc = analytics::betweenness::Run(
          snapshot_, Span<const NodeId>(c.sources), opts);
      ExpectPerNode(bc, centrality, 1e-9);
      EXPECT_EQ(bc.aggregate, PresentSources(c).size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ParallelKernelsTest,
    ::testing::ValuesIn(AllSchemeNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---- Snapshot builds against the model -----------------------------------

// Checks every byte the snapshot exposes against the model: the vertex
// universe (ascending original ids), each vertex's successors (ascending)
// and, when `weighted`, the accumulated weight of each edge.
void ExpectSnapshotMatchesRef(const CsrSnapshot& got,
                              const std::vector<NodeId>& universe,
                              const RefGraph& ref, bool weighted) {
  ASSERT_EQ(got.num_nodes(), universe.size());
  ASSERT_EQ(got.num_edges(), ref.edges.size());
  ASSERT_EQ(got.has_weights(), weighted && !ref.edges.empty());
  for (DenseId u = 0; u < got.num_nodes(); ++u) {
    const NodeId original = universe[u];
    EXPECT_EQ(got.ToOriginal(u), original) << u;
    const std::vector<NodeId>& succ = SuccessorsOf(ref, original);
    ASSERT_EQ(got.Degree(u), succ.size()) << original;
    for (size_t i = 0; i < succ.size(); ++i) {
      EXPECT_EQ(got.ToOriginal(got.Neighbors(u)[i]), succ[i])
          << original << " slot " << i;
      if (got.has_weights()) {
        EXPECT_EQ(got.Weights(u)[i],
                  ref.weight.at(EdgeKey(Edge{original, succ[i]})))
            << original << " weight slot " << i;
      }
    }
  }
}

class ParallelKernelSnapshotTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelKernelSnapshotTest, ParallelFromStoreIsByteIdentical) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    const auto store = MakeStoreByName(GetParam());
    store->InsertEdges(c.stream);
    const bool weighted = store->Capabilities().weighted;
    const RefGraph ref = BuildRef(c.stream, weighted);

    // The induced overload gets the first half of the universe; its model
    // is the stream restricted to edges inside that half.
    const std::vector<NodeId> subset(
        ref.nodes.begin(), ref.nodes.begin() + ref.nodes.size() / 2);
    const auto member = [&subset](NodeId v) {
      return std::binary_search(subset.begin(), subset.end(), v);
    };
    std::vector<Edge> induced_stream;
    for (const Edge& e : c.stream) {
      if (member(e.u) && member(e.v)) induced_stream.push_back(e);
    }
    const RefGraph induced_ref = BuildRef(induced_stream, weighted);

    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      CsrSnapshot::Options opts;
      opts.with_weights = true;
      opts.num_threads = threads;
      opts.grain = 4;
      ExpectSnapshotMatchesRef(CsrSnapshot::FromStore(*store, opts),
                               ref.nodes, ref, true);
      ExpectSnapshotMatchesRef(
          CsrSnapshot::FromStore(*store, Span<const NodeId>(subset), opts),
          subset, induced_ref, true);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ParallelKernelSnapshotTest,
    ::testing::ValuesIn(AllSchemeNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ParallelKernelSnapshotTest, FromEdgesParallelMatchesSequential) {
  // Duplicates with explicit weights: accumulation must agree with the
  // model's sum whichever lane order the builder sums them in.
  std::vector<Edge> edges;
  std::vector<uint64_t> weights;
  SplitMix64 rng(0xF00Du);
  for (int i = 0; i < 600; ++i) {
    edges.push_back(Edge{rng.NextBelow(40), rng.NextBelow(40)});
    weights.push_back(1 + rng.NextBelow64(9));
  }
  RefGraph ref = BuildRef(edges, /*weighted=*/false);
  for (auto& [key, w] : ref.weight) w = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    ref.weight[EdgeKey(edges[i])] += weights[i];
  }
  for (const size_t threads : ThreadBudgets()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CsrSnapshot::Options opts;
    opts.num_threads = threads;
    opts.grain = 8;
    ExpectSnapshotMatchesRef(
        CsrSnapshot::FromEdges(Span<const Edge>(edges),
                               Span<const uint64_t>(weights), opts),
        ref.nodes, ref, true);
  }
}

// ---- Vertex universe and dense remap edge cases ---------------------------

// Every byte two snapshots expose: the universe, each segment, each weight.
void ExpectSameSnapshot(const CsrSnapshot& got, const CsrSnapshot& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  ASSERT_EQ(got.has_weights(), want.has_weights());
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes());
  for (DenseId u = 0; u < got.num_nodes(); ++u) {
    ASSERT_EQ(got.ToOriginal(u), want.ToOriginal(u)) << u;
    ASSERT_EQ(got.Degree(u), want.Degree(u)) << u;
    for (size_t i = 0; i < got.Degree(u); ++i) {
      EXPECT_EQ(got.Neighbors(u)[i], want.Neighbors(u)[i]) << u;
      if (got.has_weights()) {
        EXPECT_EQ(got.Weights(u)[i], want.Weights(u)[i]) << u;
      }
    }
  }
}

struct UniverseCase {
  std::string name;
  std::vector<Edge> stream;  // may contain duplicate arrivals
};

// Id sets that stress the builder's id -> dense id table rather than the
// CSR: the extreme ids (0 is the first id, ~0u the last, and neither may
// read as an empty slot), ids scattered over the whole 32-bit range,
// targets that are never sources, and more distinct ids than a lane's
// dedup set starts with, so every lane's set grows.
std::vector<UniverseCase> UniverseCases() {
  constexpr NodeId kMax = ~NodeId{0};
  std::vector<UniverseCase> cases;
  {
    // Every ordered pair over the extreme ids, self loops included.
    UniverseCase extremes{"extreme_ids", {}};
    const std::vector<NodeId> ids{0, 1, kMax - 1, kMax};
    for (const NodeId u : ids) {
      for (const NodeId v : ids) extremes.stream.push_back(Edge{u, v});
    }
    extremes.stream.push_back(Edge{kMax, 0});  // duplicate arrival
    cases.push_back(std::move(extremes));
  }
  {
    UniverseCase sparse{"sparse_32bit", {}};
    SplitMix64 rng(0x5BA25Eu);
    std::vector<NodeId> ids(300);
    for (NodeId& id : ids) id = static_cast<NodeId>(rng.Next() >> 32);
    for (int i = 0; i < 3000; ++i) {
      const NodeId u = ids[rng.NextBelow(ids.size())];
      sparse.stream.push_back(Edge{u, ids[rng.NextBelow(ids.size())]});
    }
    cases.push_back(std::move(sparse));
  }
  {
    // 50 sources -> 400 sinks: most of the universe holds no out-edges.
    UniverseCase bipartite{"bipartite_sinks", {}};
    SplitMix64 rng(0xB1Au);
    for (int i = 0; i < 2000; ++i) {
      const NodeId source = rng.NextBelow(50) * 1000003u;
      const NodeId sink = 4000000000u - rng.NextBelow(400);
      bipartite.stream.push_back(Edge{source, sink});
    }
    cases.push_back(std::move(bipartite));
  }
  {
    // 60k edges over 120k distinct ids, plus a repeated hub edge.
    UniverseCase many{"120k_distinct_ids", {}};
    for (uint32_t i = 0; i < 60000; ++i) {
      many.stream.push_back(Edge{i * 2654435761u, i * 40503u + 7});
      if (i % 100 == 0) many.stream.push_back(Edge{7, 14});
    }
    cases.push_back(std::move(many));
  }
  return cases;
}

CsrSnapshot::Options SnapshotOptsFor(size_t threads) {
  CsrSnapshot::Options opts;
  opts.with_weights = true;
  opts.num_threads = threads;
  opts.grain = 2;
  return opts;
}

TEST(ParallelKernelSnapshotTest, UniverseEdgeCasesMatchModelAtEveryBudget) {
  for (const UniverseCase& c : UniverseCases()) {
    SCOPED_TRACE(c.name);
    const RefGraph ref = BuildRef(c.stream, /*weighted=*/true);
    const std::vector<uint64_t> unit(c.stream.size(), 1);
    CsrSnapshot one_lane;
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const CsrSnapshot::Options opts = SnapshotOptsFor(threads);
      CsrSnapshot got = CsrSnapshot::FromEdges(c.stream, unit, opts);
      ExpectSnapshotMatchesRef(got, ref.nodes, ref, true);
      if (threads == 1) {
        one_lane = std::move(got);
      } else {
        ExpectSameSnapshot(got, one_lane);
      }
    }
  }
}

TEST_P(ParallelKernelSnapshotTest, UniverseEdgeCasesFromStore) {
  for (const UniverseCase& c : UniverseCases()) {
    if (c.stream.size() > 10000) continue;  // FromEdges covers the big case
    SCOPED_TRACE(c.name);
    const auto store = MakeStoreByName(GetParam());
    store->InsertEdges(c.stream);
    const RefGraph ref = BuildRef(c.stream, store->Capabilities().weighted);
    CsrSnapshot one_lane;
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const CsrSnapshot::Options opts = SnapshotOptsFor(threads);
      CsrSnapshot got = CsrSnapshot::FromStore(*store, opts);
      ExpectSnapshotMatchesRef(got, ref.nodes, ref, true);
      if (threads == 1) {
        one_lane = std::move(got);
      } else {
        ExpectSameSnapshot(got, one_lane);
      }
    }
  }
}

TEST_P(ParallelKernelSnapshotTest, InducedFromStoreAbsentAndDuplicateIds) {
  // `nodes` repeats members and names ids the store has never seen (0 and
  // ~0u among them): the universe is the deduplicated `nodes`, absent ids
  // included as degree-0 vertices, and only edges inside it survive.
  constexpr NodeId kMax = ~NodeId{0};
  std::vector<Edge> stream{{1, 2}, {2, 3}, {3, 1}, {1, kMax}, {kMax, 2}};
  stream.insert(stream.end(), {{2, 99}, {99, 1}, {5, 6}, {1, 2}});
  stream.insert(stream.end(), {{kMax, kMax}, {3, 4000000000u}});
  const std::vector<NodeId> nodes{kMax, 3, 1, 0, 2, 3, 424242, kMax, 1, 6};
  const std::set<NodeId> distinct(nodes.begin(), nodes.end());
  const std::vector<NodeId> universe(distinct.begin(), distinct.end());
  std::vector<Edge> induced_stream;
  for (const Edge& e : stream) {
    if (distinct.count(e.u) && distinct.count(e.v)) induced_stream.push_back(e);
  }

  const auto store = MakeStoreByName(GetParam());
  store->InsertEdges(stream);
  const bool weighted = store->Capabilities().weighted;
  const RefGraph ref = BuildRef(induced_stream, weighted);
  CsrSnapshot one_lane;
  for (const size_t threads : ThreadBudgets()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const CsrSnapshot::Options opts = SnapshotOptsFor(threads);
    CsrSnapshot got = CsrSnapshot::FromStore(*store, nodes, opts);
    ExpectSnapshotMatchesRef(got, universe, ref, true);
    EXPECT_EQ(got.ToDense(424242), 5u);  // absent from the store, kept
    EXPECT_EQ(got.Degree(got.ToDense(0)), 0u);
    EXPECT_EQ(got.ToDense(99), CsrSnapshot::kAbsent);
    if (threads == 1) {
      one_lane = std::move(got);
    } else {
      ExpectSameSnapshot(got, one_lane);
    }
  }
}

// A thread-safe stand-in for an un-quiesced writer: the backing store
// never changes (so the parallel extraction races nothing), but
// NumEdges() reports one extra edge on every call after the first — the
// drift the builder's recheck exists to catch.
class EdgeCountDriftStub final : public GraphStore {
 public:
  std::string_view name() const override { return "edge-count-drift"; }
  bool InsertEdge(NodeId u, NodeId v) override {
    return backing_.InsertEdge(u, v);
  }
  bool QueryEdge(NodeId u, NodeId v) const override {
    return backing_.QueryEdge(u, v);
  }
  bool DeleteEdge(NodeId u, NodeId v) override {
    return backing_.DeleteEdge(u, v);
  }
  std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const override {
    return backing_.Neighbors(u);
  }
  std::unique_ptr<NeighborCursor> Nodes() const override {
    return backing_.Nodes();
  }
  size_t NumEdges() const override {
    return backing_.NumEdges() +
           (calls_.fetch_add(1, std::memory_order_relaxed) > 0 ? 1 : 0);
  }
  size_t NumNodes() const override { return backing_.NumNodes(); }
  size_t MemoryBytes() const override { return backing_.MemoryBytes(); }

 private:
  baselines::HashMapStore backing_;
  mutable std::atomic<int> calls_{0};
};

TEST(ParallelKernelSnapshotTest, ParallelBuildStillDetectsMidBuildDrift) {
  for (const size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CsrSnapshot::Options opts;
    opts.num_threads = threads;
    {
      EdgeCountDriftStub store;
      store.InsertEdge(1, 2);
      store.InsertEdge(2, 3);
      EXPECT_THROW(CsrSnapshot::FromStore(store, opts), std::logic_error);
    }
    {
      EdgeCountDriftStub store;
      store.InsertEdge(1, 2);
      store.InsertEdge(2, 3);
      const std::vector<NodeId> nodes{1, 2, 3};
      EXPECT_THROW(
          CsrSnapshot::FromStore(store, Span<const NodeId>(nodes), opts),
          std::logic_error);
    }
  }
}

}  // namespace
}  // namespace cuckoograph
