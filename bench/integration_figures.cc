// The Neo4j integration figure: CuckooGraph as a Neo4j edge index
// (Figure 18, Section V-G). The Redis integration (Figure 17) runs over
// the TCP server in served_figure.cc.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "datasets/datasets.h"
#include "figures.h"
#include "neo4j_sim/indexed_property_graph.h"
#include "neo4j_sim/property_graph.h"

namespace cuckoograph::bench {

// Figure 18: Neo4j with and without the CuckooGraph edge index (Section
// V-G). Methodology: insert the first 1M CAIDA edges (scaled) into the
// property-graph store — for "Ours+Neo4j" the CuckooGraph index is
// maintained alongside, which costs a little extra insert time — then
// de-duplicate and query every edge; the indexed queries skip the
// adjacency-list traversal entirely. Fails when the indexed and pure
// paths disagree on the result set.
int RunFig18(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);

  const datasets::Dataset dataset = MakeBenchDataset("CAIDA", user_scale);
  const std::vector<Edge> distinct = datasets::DedupEdges(dataset.stream);

  // Pure Neo4j.
  neo4j_sim::PropertyGraphStore pure;
  WallTimer timer;
  for (const Edge& e : dataset.stream) pure.CreateRelationship(e.u, e.v);
  const double pure_insert = timer.ElapsedSeconds();
  timer.Reset();
  size_t pure_found = 0;
  for (const Edge& e : distinct) {
    pure_found += pure.FindRelationships(e.u, e.v).size();
  }
  const double pure_query = timer.ElapsedSeconds();

  // Neo4j + CuckooGraph index.
  neo4j_sim::IndexedPropertyGraph indexed;
  timer.Reset();
  for (const Edge& e : dataset.stream) indexed.CreateRelationship(e.u, e.v);
  const double ours_insert = timer.ElapsedSeconds();
  timer.Reset();
  size_t ours_found = 0;
  for (const Edge& e : distinct) {
    for (auto it = indexed.FindRelationships(e.u, e.v); it.Valid();
         it.Next()) {
      ++ours_found;
    }
  }
  const double ours_query = timer.ElapsedSeconds();

  PrintHeader(figure.id, figure.title, {"Ours+Neo4j", "Neo4j"});
  PrintRow(figure.id, {"Insertion", FmtSeconds(ours_insert),
                       FmtSeconds(pure_insert)});
  PrintRow(figure.id,
           {"Query", FmtSeconds(ours_query), FmtSeconds(pure_query)});
  std::printf("edges=%zu distinct=%zu found(pure)=%zu found(ours)=%zu "
              "adjacency scan steps (pure path): %zu\n",
              dataset.stream.size(), distinct.size(), pure_found,
              ours_found, pure.scan_steps());
  return pure_found == ours_found ? 0 : 1;
}

}  // namespace cuckoograph::bench
