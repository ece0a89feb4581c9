// The extended (weighted) CuckooGraph of Section V-A: duplicate arrivals
// accumulate as edge weight instead of being dropped, which is what the
// duplicate-heavy streams (CAIDA, StackOverflow, WikiTalk) need.
#ifndef CUCKOOGRAPH_CORE_WEIGHTED_CUCKOO_GRAPH_H_
#define CUCKOOGRAPH_CORE_WEIGHTED_CUCKOO_GRAPH_H_

#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "core/config.h"
#include "core/cuckoo_graph.h"

namespace cuckoograph {

// Cells carry a uint32_t weight next to the neighbour id; everything
// else is the CuckooGraph core.
class WeightedCuckooGraph : public BasicCuckooGraph<internal::WeightedCell> {
 public:
  WeightedCuckooGraph() : WeightedCuckooGraph(Config()) {}
  explicit WeightedCuckooGraph(const Config& config)
      : BasicCuckooGraph(config) {}

  // Factory scheme key and bench column header (the paper columns keep
  // their CamelCase names; the extended store is the odd one out so the
  // --schemes flag reads naturally).
  std::string_view name() const override { return "cuckoo-weighted"; }

  // Every arrival accumulates: a duplicate InsertEdge still returns false
  // (the edge set is unchanged) but bumps the edge's weight, which is what
  // the duplicate-heavy streams feed through InsertEdges.
  bool InsertEdge(NodeId u, NodeId v) override { return AddEdge(u, v) == 1; }

  // Adds one arrival of <u, v>: inserts the edge with weight 1 if absent,
  // otherwise increments its weight. Returns the resulting weight.
  uint64_t AddEdge(NodeId u, NodeId v) { return AddEdgeWeight(u, v, 1); }

  // Accumulated weight of <u, v>, or 0 if the edge is absent.
  uint64_t QueryWeight(NodeId u, NodeId v) const {
    return GetEdgeWeight(u, v);
  }

  // The snapshot layer's weighted-query hook.
  uint64_t EdgeWeight(NodeId u, NodeId v) const override {
    return QueryWeight(u, v);
  }
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_CORE_WEIGHTED_CUCKOO_GRAPH_H_
