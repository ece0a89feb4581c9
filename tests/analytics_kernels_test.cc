// Kernel correctness: each of the seven analytics kernels checked against
// a naive reference implementation on small deterministic graphs (path,
// star, clique, two components, diamond), parameterized over every factory
// scheme — every store feeds the kernels through the same CsrSnapshot
// layer, so agreement here certifies store, snapshot, and kernel together.
// The models live in analytics_reference.h.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/bfs.h"
#include "analytics/common.h"
#include "analytics/connected_components.h"
#include "analytics/csr_snapshot.h"
#include "analytics/lcc.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/triangle_count.h"
#include "analytics_reference.h"
#include "baselines/store_factory.h"
#include "common/types.h"
#include "gtest/gtest.h"

namespace cuckoograph {
namespace {

using analytics::CsrSnapshot;
using analytics::DenseId;
using analytics::KernelResult;
using analytics::kUnreached;
using reference::BuildRef;
using reference::NaiveBetweenness;
using reference::NaiveBfs;
using reference::NaiveLcc;
using reference::NaivePageRank;
using reference::NaiveSccRepresentatives;
using reference::NaiveSssp;
using reference::NaiveTriangles;
using reference::RefGraph;

// ---- Fixtures -------------------------------------------------------------

struct TestCase {
  std::string name;
  std::vector<Edge> stream;  // may contain duplicate arrivals
  std::vector<NodeId> sources;
};

// Non-contiguous ids throughout, so the dense remap is exercised. The
// first stream edge repeats once: weighted schemes must see weight 2 on
// it, everyone else weight 1.
std::vector<TestCase> AllCases() {
  std::vector<TestCase> cases;
  // Path 5 -> 15 -> 25 -> 35 -> 45.
  cases.push_back(
      {"path", {{5, 15}, {15, 25}, {25, 35}, {35, 45}}, {5, 25}});
  // Star: hub 70 <-> leaves.
  cases.push_back({"star",
                   {{70, 11}, {70, 22}, {70, 33}, {11, 70}, {22, 70},
                    {33, 70}},
                   {70, 11}});
  // Clique K4 on {10, 20, 30, 40}, both directions.
  {
    TestCase clique{"clique", {}, {10, 30}};
    const std::vector<NodeId> members{10, 20, 30, 40};
    for (const NodeId u : members) {
      for (const NodeId v : members) {
        if (u != v) clique.stream.push_back(Edge{u, v});
      }
    }
    cases.push_back(clique);
  }
  // Two components: a 3-cycle and a disjoint 2-cycle.
  cases.push_back(
      {"two_components", {{100, 110}, {110, 120}, {120, 100}, {7, 9}, {9, 7}},
       {100, 7}});
  // Diamond with two equal shortest paths (exercises sigma counting).
  cases.push_back(
      {"diamond", {{1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}}, {1}});
  for (auto& c : cases) c.stream.push_back(c.stream.front());  // duplicate
  return cases;
}

class AnalyticsKernelsTest : public ::testing::TestWithParam<std::string> {
 protected:
  // Loads the case's stream into this scheme's store, snapshots it with
  // weights, and builds the matching reference model.
  void Load(const TestCase& c) {
    store_ = MakeStoreByName(GetParam());
    store_->InsertEdges(c.stream);
    CsrSnapshot::Options opts;
    opts.with_weights = true;
    snapshot_ = CsrSnapshot::FromStore(*store_, opts);
    ref_ = BuildRef(c.stream, store_->Capabilities().weighted);
    ASSERT_EQ(snapshot_.num_nodes(), ref_.nodes.size());
    ASSERT_EQ(snapshot_.num_edges(), ref_.edges.size());
  }

  double ValueAt(const KernelResult& result, NodeId id) const {
    const DenseId dense = snapshot_.ToDense(id);
    EXPECT_NE(dense, CsrSnapshot::kAbsent) << id;
    return result.per_node[dense];
  }

  std::unique_ptr<GraphStore> store_;
  CsrSnapshot snapshot_;
  RefGraph ref_;
};

TEST_P(AnalyticsKernelsTest, BfsMatchesNaiveReference) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    // Duplicate and absent source ids must be ignored.
    std::vector<NodeId> sources = c.sources;
    sources.push_back(c.sources.front());
    sources.push_back(424242);
    const KernelResult result =
        analytics::bfs::Run(snapshot_, Span<const NodeId>(sources));
    const auto expected = NaiveBfs(ref_, c.sources);
    uint64_t reached = 0;
    for (const NodeId n : ref_.nodes) {
      EXPECT_EQ(ValueAt(result, n), expected.at(n)) << n;
      if (expected.at(n) != kUnreached) ++reached;
    }
    EXPECT_EQ(result.aggregate, reached);
  }
}

TEST_P(AnalyticsKernelsTest, SsspMatchesNaiveDijkstra) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult result =
        analytics::sssp::Run(snapshot_, Span<const NodeId>(c.sources));
    const auto expected = NaiveSssp(ref_, c.sources);
    for (const NodeId n : ref_.nodes) {
      EXPECT_EQ(ValueAt(result, n), expected.at(n)) << n;
    }
  }
}

TEST_P(AnalyticsKernelsTest, TriangleCountMatchesNaiveReference) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    // Per-source counts against the reference...
    const KernelResult result = analytics::triangle_count::Run(
        snapshot_, Span<const NodeId>(c.sources));
    uint64_t sum = 0;
    for (const NodeId s : c.sources) {
      const uint64_t expected = NaiveTriangles(ref_, s);
      EXPECT_EQ(ValueAt(result, s), static_cast<double>(expected)) << s;
      sum += expected;
    }
    EXPECT_EQ(result.aggregate, sum);
    // ... and the whole-snapshot sweep equals summing every vertex.
    const KernelResult swept =
        analytics::triangle_count::Run(snapshot_, Span<const NodeId>());
    uint64_t total = 0;
    for (const NodeId n : ref_.nodes) total += NaiveTriangles(ref_, n);
    EXPECT_EQ(swept.aggregate, total);
  }
}

TEST_P(AnalyticsKernelsTest, SccPartitionMatchesMutualReachability) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult result =
        analytics::connected_components::Run(snapshot_, Span<const NodeId>());
    reference::ExpectSccPartition(snapshot_, result,
                                  NaiveSccRepresentatives(ref_));
  }
}

TEST_P(AnalyticsKernelsTest, PageRankMatchesNaivePowerIteration) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult result =
        analytics::pagerank::RunIterations(snapshot_, 10);
    EXPECT_EQ(result.aggregate, 10u);
    const auto expected = NaivePageRank(ref_, 10, 0.85);
    double sum = 0.0;
    for (const NodeId n : ref_.nodes) {
      EXPECT_NEAR(ValueAt(result, n), expected.at(n), 1e-12) << n;
      sum += ValueAt(result, n);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(AnalyticsKernelsTest, BetweennessMatchesPairDependencies) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    // Empty sources = every pivot = the exact scores.
    const KernelResult result =
        analytics::betweenness::Run(snapshot_, Span<const NodeId>());
    EXPECT_EQ(result.aggregate, ref_.nodes.size());
    const auto expected = NaiveBetweenness(ref_, {});
    for (const NodeId n : ref_.nodes) {
      EXPECT_NEAR(ValueAt(result, n), expected.at(n), 1e-9) << n;
    }
  }
}

TEST_P(AnalyticsKernelsTest, LccMatchesNaiveReference) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult result =
        analytics::lcc::Run(snapshot_, Span<const NodeId>());
    EXPECT_EQ(result.aggregate, ref_.nodes.size());
    for (const NodeId n : ref_.nodes) {
      EXPECT_NEAR(ValueAt(result, n), NaiveLcc(ref_, n), 1e-12) << n;
    }
  }
}

TEST_P(AnalyticsKernelsTest, EmptySnapshotRunsEveryKernel) {
  store_ = MakeStoreByName(GetParam());
  snapshot_ = CsrSnapshot::FromStore(*store_);
  const Span<const NodeId> none;
  EXPECT_EQ(analytics::bfs::Run(snapshot_, none).aggregate, 0u);
  EXPECT_EQ(analytics::sssp::Run(snapshot_, none).aggregate, 0u);
  EXPECT_EQ(analytics::triangle_count::Run(snapshot_, none).aggregate, 0u);
  EXPECT_EQ(analytics::connected_components::Run(snapshot_, none).aggregate,
            0u);
  EXPECT_TRUE(analytics::pagerank::Run(snapshot_, none).per_node.empty());
  EXPECT_EQ(analytics::betweenness::Run(snapshot_, none).aggregate, 0u);
  EXPECT_EQ(analytics::lcc::Run(snapshot_, none).aggregate, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, AnalyticsKernelsTest,
    ::testing::ValuesIn(AllSchemeNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace cuckoograph
