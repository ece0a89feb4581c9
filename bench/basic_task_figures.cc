// The Section V-D comparison of every factory scheme on the Table IV
// datasets: insertion, query and deletion throughput (Figures 6-8), memory
// growth (Figure 9) and the empirical check of Table III's complexities.
// A store that loses an edge fails the figure.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/store_factory.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/config.h"
#include "datasets/datasets.h"
#include "figures.h"
#include "persist/durable_store.h"

namespace cuckoograph::bench {

namespace {

// The Section V-D phase a figure reports. Insertion always runs (it
// populates the store); kQuery adds the query pass and kDelete the
// deletion pass, so a figure pays for exactly what it reports.
enum class BasicPhase { kInsert, kQuery, kDelete };

// Runs the Section V-D methodology on one store up to `phase`, one edge
// at a time (the figures measure stream processing, not batch loading):
// insert the full arrival stream, then query every stream edge (all hits,
// mirroring the paper) or delete the distinct edges. Returns the Mops of
// `phase`. Clears *ok, with a FAIL line on stderr, when the store lost an
// edge: it holds fewer than the distinct edges after insertion, misses a
// stream-edge query, or still holds edges after every distinct edge was
// deleted.
double RunBasicTasks(GraphStore& store, const datasets::Dataset& dataset,
                     const std::vector<Edge>& distinct, BasicPhase phase,
                     bool* ok) {
  const std::string name(store.name());
  WallTimer timer;
  for (const Edge& e : dataset.stream) store.InsertEdge(e.u, e.v);
  const double insert_mops =
      Mops(dataset.stream.size(), timer.ElapsedSeconds());
  if (store.NumEdges() != distinct.size()) {
    std::fprintf(stderr, "FAIL: %s holds %zu edges after insertion, "
                 "expected %zu\n", name.c_str(), store.NumEdges(),
                 distinct.size());
    *ok = false;
  }
  if (phase == BasicPhase::kInsert) return insert_mops;

  timer.Reset();
  if (phase == BasicPhase::kQuery) {
    size_t hits = 0;
    for (const Edge& e : dataset.stream) hits += store.QueryEdge(e.u, e.v);
    const double query_mops =
        Mops(dataset.stream.size(), timer.ElapsedSeconds());
    if (hits != dataset.stream.size()) {
      std::fprintf(stderr, "FAIL: %s missed %zu queries\n", name.c_str(),
                   dataset.stream.size() - hits);
      *ok = false;
    }
    return query_mops;
  }

  for (const Edge& e : distinct) store.DeleteEdge(e.u, e.v);
  const double delete_mops = Mops(distinct.size(), timer.ElapsedSeconds());
  if (store.NumEdges() != 0) {
    std::fprintf(stderr, "FAIL: %s holds %zu edges after deleting every "
                 "distinct edge\n", name.c_str(), store.NumEdges());
    *ok = false;
  }
  return delete_mops;
}

// One row per dataset, one column per scheme: each cell is a fresh store
// running the Section V-D steps up to `phase` (1: insert every stream
// edge, 2: query every stream edge, 3: delete the distinct edges one by
// one), reporting that phase's Mops. Schemes whose Capabilities() rule
// deletions out print "-" in the deletion table. Returns false when any
// store lost an edge.
bool RunSchemeTable(const Figure& figure, double user_scale,
                    BasicPhase phase) {
  bool ok = true;
  PrintHeader(figure.id, figure.title, AllSchemeNames());
  for (const std::string& dataset_name : datasets::AllDatasetNames()) {
    const datasets::Dataset dataset =
        MakeBenchDataset(dataset_name, user_scale);
    const std::vector<Edge> distinct = datasets::DedupEdges(dataset.stream);
    std::vector<std::string> row{dataset_name};
    for (const std::string& scheme : AllSchemeNames()) {
      auto store = MakeStoreByName(scheme);
      if (phase == BasicPhase::kDelete && !store->Capabilities().deletions) {
        row.push_back("-");
        continue;
      }
      row.push_back(
          FmtMops(RunBasicTasks(*store, dataset, distinct, phase, &ok)));
    }
    PrintRow(figure.id, row);
  }
  return ok;
}

// The --durable-dir table of Figure 6: the same insert stream through a
// WAL-backed cuckoo-durable store under each wal_sync_mode, next to the
// in-memory CuckooGraph baseline. Each cell runs in its own subdirectory
// of `durable_dir` and cleans up after itself.
bool RunDurableTable(const Figure& figure, const std::string& durable_dir,
                     double user_scale) {
  struct DurableColumn {
    const char* label;
    WalSyncMode mode;
  };
  constexpr DurableColumn kDurableColumns[] = {
      {"wal:none", WalSyncMode::kNone},
      {"wal:group", WalSyncMode::kGroup},
      {"wal:always", WalSyncMode::kAlways},
  };
  const std::string experiment = std::string(figure.id) + "-durable";
  std::vector<std::string> columns{"in-memory"};
  for (const DurableColumn& col : kDurableColumns) {
    columns.push_back(col.label);
  }
  PrintHeader(experiment,
              "Insertion throughput with a WAL (Mops, higher is better)",
              columns);
  bool ok = true;
  for (const std::string& dataset_name : datasets::AllDatasetNames()) {
    const datasets::Dataset dataset =
        MakeBenchDataset(dataset_name, user_scale);
    const std::vector<Edge> distinct = datasets::DedupEdges(dataset.stream);
    std::vector<std::string> row{dataset_name};
    const auto run = [&](GraphStore& store) {
      row.push_back(FmtMops(
          RunBasicTasks(store, dataset, distinct, BasicPhase::kInsert, &ok)));
    };
    run(*MakeStoreByName("CuckooGraph"));
    for (const DurableColumn& col : kDurableColumns) {
      Config config;
      config.wal_sync_mode = col.mode;
      persist::DurableOptions opts = persist::MakeDurableOptions(
          config, durable_dir + "/fig6-" + dataset_name + "-" + col.label);
      opts.owns_dir = true;  // each cell starts empty and cleans up
      run(*MakeDurableStoreByName("cuckoo-durable", opts));
    }
    PrintRow(experiment, row);
  }
  return ok;
}

}  // namespace

// Figure 6: insertion throughput; --durable-dir adds the WAL table.
int RunFig6(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);
  bool ok = RunSchemeTable(figure, user_scale, BasicPhase::kInsert);
  const std::string durable_dir = flags.GetString("durable-dir", "");
  if (!durable_dir.empty()) {
    ok = RunDurableTable(figure, durable_dir, user_scale) && ok;
  }
  return ok ? 0 : 1;
}

// Figure 7: query throughput.
int RunFig7(const Figure& figure, const Flags& flags) {
  return RunSchemeTable(figure, flags.GetDouble("scale", 1.0),
                        BasicPhase::kQuery)
             ? 0
             : 1;
}

// Figure 8: deletion throughput.
int RunFig8(const Figure& figure, const Flags& flags) {
  return RunSchemeTable(figure, flags.GetDouble("scale", 1.0),
                        BasicPhase::kDelete)
             ? 0
             : 1;
}

// Figure 9(a)-(g): memory usage versus number of inserted items on every
// dataset (Section V-D methodology step 4: de-duplicate first, insert one
// by one, sample the memory footprint as insertion progresses).
int RunFig9(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);
  const int checkpoints =
      std::max(1, static_cast<int>(flags.GetInt("checkpoints", 5)));

  bool ok = true;
  for (const std::string& dataset_name : datasets::AllDatasetNames()) {
    const datasets::Dataset dataset =
        MakeBenchDataset(dataset_name, user_scale);
    const std::vector<Edge> distinct = datasets::DedupEdges(dataset.stream);
    PrintHeader(figure.id,
                std::string(figure.title) + " — " + dataset_name,
                AllSchemeNames());
    // Sample after each fraction i/checkpoints of the distinct edges.
    std::vector<std::unique_ptr<GraphStore>> stores;
    for (const std::string& scheme : AllSchemeNames()) {
      stores.push_back(MakeStoreByName(scheme));
    }
    size_t cursor = 0;
    for (int cp = 1; cp <= checkpoints; ++cp) {
      const size_t until = distinct.size() * static_cast<size_t>(cp) /
                           static_cast<size_t>(checkpoints);
      // Edge-at-a-time on purpose: batch overrides (SortedVector's
      // sort-merge builds tight-fit vectors) would shift the memory curve
      // away from the stream-processing regime this figure measures.
      for (auto& store : stores) {
        for (size_t i = cursor; i < until; ++i) {
          store->InsertEdge(distinct[i].u, distinct[i].v);
        }
        if (store->NumEdges() != until) {
          std::fprintf(stderr, "FAIL: %s holds %zu of %zu edges\n",
                       std::string(store->name()).c_str(),
                       store->NumEdges(), until);
          ok = false;
        }
      }
      cursor = until;
      std::vector<std::string> row{dataset_name + "@" +
                                   std::to_string(until)};
      for (auto& store : stores) row.push_back(FmtMb(store->MemoryBytes()));
      PrintRow(figure.id, row);
    }
  }
  return ok ? 0 : 1;
}

// Table III: time/space complexity comparison. Prints the paper's analytic
// table, then verifies it empirically: amortized per-op insert and query
// time for every scheme at growing |E| (a scheme with O(1) ops stays flat;
// O(log |E|) and O(deg) schemes drift upward).
int RunTable3(const Figure& figure, const Flags& flags) {
  const size_t max_edges =
      static_cast<size_t>(flags.GetInt("max_edges", 400'000));

  std::printf("== %s: %s ==\n", figure.id, figure.title);
  std::printf("%-14s%20s%20s%16s\n", "Algorithm", "Insert <u,v>",
              "Query <u,v>", "Space");
  std::printf("%-14s%20s%20s%16s\n", "LiveGraph", "O(1)", "O(deg(v))",
              "O(|E|)");
  std::printf("%-14s%20s%20s%16s\n", "Spruce", "O(|E|/|V|)", "O(log|E|/|V|)",
              "O(|E|)");
  std::printf("%-14s%20s%20s%16s\n", "Sortledton", "O(log|E|)", "O(log|E|)",
              "O(|E|)");
  std::printf("%-14s%20s%20s%16s\n", "WBI", "O(1)", "O(|E|/K^2)",
              "O(K^2+|E|)");
  std::printf("%-14s%20s%20s%16s\n", "CuckooGraph", "O(1)", "O(1)",
              "O(|E|)");

  // Empirical check: ns/op at |E| in {N/4, N/2, N}. A power-law workload
  // (hub node u=0) exposes the O(deg) query terms.
  PrintHeader(figure.id, "empirical ns/op at growing |E|",
              {"|E|", "insert ns", "query ns", "bytes/edge"});
  for (const std::string& scheme : AllSchemeNames()) {
    std::printf("-- %s --\n", scheme.c_str());
    for (size_t edges : {max_edges / 4, max_edges / 2, max_edges}) {
      auto store = MakeStoreByName(scheme);
      SplitMix64 rng(42);
      std::vector<Edge> workload;
      workload.reserve(edges);
      for (size_t i = 0; i < edges; ++i) {
        // 1/8 of edges attach to the hub; the rest are power-law-ish.
        const NodeId u = (i % 8 == 0) ? 0 : rng.NextBelow(edges / 4 + 1);
        const NodeId v = rng.NextBelow(edges) + 1;
        workload.push_back(Edge{u, v});
      }
      WallTimer timer;
      for (const Edge& e : workload) store->InsertEdge(e.u, e.v);
      const double insert_ns =
          timer.ElapsedSeconds() * 1e9 / static_cast<double>(edges);
      timer.Reset();
      size_t hits = 0;
      for (const Edge& e : workload) hits += store->QueryEdge(e.u, e.v);
      const double query_ns =
          timer.ElapsedSeconds() * 1e9 / static_cast<double>(edges);
      (void)hits;
      const double bytes_per_edge =
          static_cast<double>(store->MemoryBytes()) /
          static_cast<double>(store->NumEdges());
      char insert_buf[32], query_buf[32], bpe_buf[32];
      std::snprintf(insert_buf, sizeof(insert_buf), "%.0f", insert_ns);
      std::snprintf(query_buf, sizeof(query_buf), "%.0f", query_ns);
      std::snprintf(bpe_buf, sizeof(bpe_buf), "%.1f", bytes_per_edge);
      PrintRow(figure.id, {scheme + "@" + std::to_string(edges), insert_buf,
                           query_buf, bpe_buf});
    }
  }
  return 0;
}

}  // namespace cuckoograph::bench
