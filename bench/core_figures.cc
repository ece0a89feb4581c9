// Exhibits of the core structure alone: Theorems 1-2 (Section IV-A),
// Table II's transformation rule, the Table IV dataset roster, the
// parameter-tuning sweeps (Figures 2-4), the DENYLIST ablation (Figure 5)
// and the inline-slot / reverse-transformation design ablations.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/config.h"
#include "core/cuckoo_graph.h"
#include "core/weighted_cuckoo_graph.h"
#include "datasets/datasets.h"
#include "figures.h"

namespace cuckoograph::bench {

// Theorem 1 (Section IV-A): the average number of insertions (placement
// attempts + kicks) per item in L-CHT and S-CHT while inserting the
// NotreDame-like dataset from minimum size, expansions included. The paper
// reports about 1.017 (L-CHT) and 1.006 (S-CHT), far below T = 250.
int RunTheorem1(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);

  const datasets::Dataset dataset = MakeBenchDataset("NotreDame", user_scale);

  Config config;
  config.l_initial_buckets = 1;  // expand from the minimum length
  config.s_initial_buckets = 1;
  CuckooGraph graph(config);
  for (const Edge& e : dataset.stream) graph.InsertEdge(e.u, e.v);

  const GraphStats st = graph.stats();
  // "Insertions per item": placement rounds per placed item, i.e. 1 plus
  // the average number of kick-out loops — the quantity the paper compares
  // against T. Expansion-time re-placements are included in the base.
  const double l_placements =
      static_cast<double>(st.l.insert_attempts + st.l.rehash_moves);
  const double l_per_item =
      (l_placements + static_cast<double>(st.l.kicks)) / l_placements;
  const double s_placements =
      static_cast<double>(st.s.insert_attempts + st.s.rehash_moves);
  const double s_per_item =
      s_placements == 0.0
          ? 1.0
          : (s_placements + static_cast<double>(st.s.kicks)) / s_placements;

  PrintHeader(figure.id, figure.title, {"value"});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", l_per_item);
  PrintRow(figure.id, {"L-CHT", buf});
  std::snprintf(buf, sizeof(buf), "%.3f", s_per_item);
  PrintRow(figure.id, {"S-CHT", buf});
  std::printf("edges=%zu nodes=%zu l_kicks=%llu s_kicks=%llu (T=%d)\n",
              graph.NumEdges(), graph.NumNodes(),
              static_cast<unsigned long long>(st.l.kicks),
              static_cast<unsigned long long>(st.s.kicks),
              graph.config().max_kicks);
  return 0;
}

// Theorem 2 (Section IV-A): inserting N edges into L-CHT costs at most 3N
// "dollars" (2.25N expected), where one dollar is one edge placement and
// merges/expansions pay per re-hashed item. We count the actual dollars
// spent while growing from the minimum size; exceeding 3N fails the run.
int RunTheorem2(const Figure& figure, const Flags& flags) {
  const size_t n = static_cast<size_t>(flags.GetInt("nodes", 500'000));

  Config config;
  config.l_initial_buckets = 1;
  CuckooGraph graph(config);
  // Distinct sources so every insert lands in the L-CHT.
  for (NodeId u = 0; u < n; ++u) graph.InsertEdge(u, u + 1);

  const GraphStats st = graph.stats();
  const double dollars =
      static_cast<double>(st.l.insert_attempts + st.l.rehash_moves);
  const double ratio = dollars / static_cast<double>(n);

  PrintHeader(figure.id, figure.title, {"value"});
  PrintRow(figure.id, {"N", std::to_string(n)});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", dollars);
  PrintRow(figure.id, {"dollars", buf});
  std::snprintf(buf, sizeof(buf), "%.3f", ratio);
  PrintRow(figure.id, {"dollars/N", buf});
  std::printf("merges=%llu expansions=%llu  (theorem bound holds: %s)\n",
              static_cast<unsigned long long>(st.l.merges),
              static_cast<unsigned long long>(st.l.expansions),
              ratio <= 3.0 ? "yes" : "NO");
  return ratio <= 3.0 ? 0 : 1;
}

// Table II: the transformation rule of the S-CHT chain lengths (R = 3).
// Grows one node's neighbourhood edge by edge and prints every distinct
// (1st, 2nd, 3rd) length state the live chain passes through, which should
// match the paper's sequence n | n,n/2 | n,n/2,n/2 | 2n,n | 2n,n,n |
// 4n,2n | ... (lengths printed in buckets; n = s_initial_buckets).
int RunTable2(const Figure& figure, const Flags&) {
  Config config;
  config.s_initial_buckets = 2;  // "n" in Table II
  CuckooGraph graph(config);

  PrintHeader(figure.id,
              std::string(figure.title) + " (n = " +
                  std::to_string(config.s_initial_buckets) + " buckets)",
              {"1st", "2nd", "3rd", "#neighbours"});

  std::vector<size_t> last;
  size_t rows = 0;
  for (NodeId v = 0; v < 4'000'000 && rows < 10; ++v) {
    graph.InsertEdge(1, v + 100);
    const std::vector<size_t> lengths = graph.SChainLengths(1);
    if (lengths.empty() || lengths == last) continue;
    last = lengths;
    ++rows;
    std::vector<std::string> row{"#" + std::to_string(rows)};
    for (size_t i = 0; i < 3; ++i) {
      row.push_back(i < lengths.size() ? std::to_string(lengths[i]) : "null");
    }
    row.push_back(std::to_string(graph.OutDegree(1)));
    PrintRow(figure.id, row);
  }
  std::printf("(expected, Table II with n=2: 2 | 2,1 | 2,1,1 | 4,2 | 4,2,2 "
              "| 8,4 | 8,4,4 | 16,8 | ...)\n");
  return 0;
}

// Table IV: the dataset roster. Generates each dataset at bench scale and
// prints the measured statistics in the paper's columns so the synthetic
// stand-ins can be compared against the originals' profile.
int RunTable4(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);

  PrintHeader(figure.id, figure.title,
              {"Weighted?", "#Nodes", "#Edges", "#Edges(dedup)", "Avg.Deg",
               "Max.Deg", "Density"});
  for (const std::string& name : datasets::AllDatasetNames()) {
    const datasets::Dataset dataset = MakeBenchDataset(name, user_scale);
    const datasets::DatasetStats stats = datasets::ComputeStats(dataset);
    char avg[32], density[32];
    std::snprintf(avg, sizeof(avg), "%.2f", stats.avg_degree);
    std::snprintf(density, sizeof(density), "%.2e", stats.density);
    PrintRow(figure.id,
             {name, dataset.weighted ? "yes" : "no",
              std::to_string(stats.nodes), std::to_string(stats.stream_edges),
              std::to_string(stats.distinct_edges), avg,
              std::to_string(stats.max_total_degree), density});
  }
  std::printf("(paper's full-scale rows in Table IV; scale with --scale)\n");
  return 0;
}

// Design ablation: the L-CHT cell's inline small slots on/off. Real graphs
// are dominated by low-degree nodes (the sparsity observation of Section
// I), so storing up to 2R neighbours inline avoids allocating an S-CHT
// chain for most nodes. Disabling the inline slots gives every node a
// chain from its first edge; this quantifies what that costs in memory and
// throughput on a low-degree-heavy and a high-degree dataset.
int RunAblationInline(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);

  PrintHeader(figure.id, figure.title,
              {"ins Mops", "qry Mops", "MB", "chains"});
  for (const std::string& dataset_name :
       {std::string("SparseGraph"), std::string("NotreDame"),
        std::string("DenseGraph")}) {
    const datasets::Dataset dataset =
        MakeBenchDataset(dataset_name, user_scale);
    for (const bool inline_slots : {true, false}) {
      Config config;
      config.enable_inline_slots = inline_slots;
      CuckooGraph graph(config);
      WallTimer timer;
      for (const Edge& e : dataset.stream) graph.InsertEdge(e.u, e.v);
      const double ins = Mops(dataset.stream.size(), timer.ElapsedSeconds());
      timer.Reset();
      size_t hits = 0;
      for (const Edge& e : dataset.stream) hits += graph.QueryEdge(e.u, e.v);
      const double qry = Mops(dataset.stream.size(), timer.ElapsedSeconds());
      (void)hits;
      PrintRow(figure.id,
               {dataset_name + (inline_slots ? "/inline" : "/chains"),
                FmtMops(ins), FmtMops(qry), FmtMb(graph.MemoryBytes()),
                std::to_string(graph.stats().num_chains)});
    }
  }
  return 0;
}

// Design ablation: reverse transformation on/off. Inserts a CAIDA-like
// dedup stream, deletes 90% of it, and compares the retained memory and
// the deletion throughput. With the reverse transformation the structure
// tightens back toward its minimal form; with it off, capacity is retained
// (faster deletes, more memory).
int RunAblationReverseTransform(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);

  const datasets::Dataset dataset = MakeBenchDataset("CAIDA", user_scale);
  const std::vector<Edge> distinct = datasets::DedupEdges(dataset.stream);
  const size_t kept = distinct.size() / 10;

  PrintHeader(figure.id, figure.title, {"peak MB", "after MB", "del Mops"});
  for (const bool enabled : {true, false}) {
    Config config;
    config.enable_reverse_transform = enabled;
    CuckooGraph graph(config);
    for (const Edge& e : distinct) graph.InsertEdge(e.u, e.v);
    const size_t peak = graph.MemoryBytes();
    WallTimer timer;
    for (size_t i = kept; i < distinct.size(); ++i) {
      graph.DeleteEdge(distinct[i].u, distinct[i].v);
    }
    const double del_mops =
        Mops(distinct.size() - kept, timer.ElapsedSeconds());
    PrintRow(figure.id, {enabled ? "RT on" : "RT off", FmtMb(peak),
                         FmtMb(graph.MemoryBytes()), FmtMops(del_mops)});
  }
  return 0;
}

namespace {

// One sweep variant: a legend label ("d=8") and its configuration.
using ParamVariant = std::pair<std::string, Config>;

// The Section V-B methodology shared by Figures 2-5, on the CAIDA-like
// stream: batch-insert measuring cumulative insertion throughput at
// checkpoints, re-query the full stream prefix at each checkpoint (so
// qry@N measures the N-item structure), and sample memory while inserting
// de-duplicated edges. Prints the figure's three blocks.
int RunParamSweep(const Figure& figure, const Flags& flags,
                  const std::vector<ParamVariant>& variants) {
  const std::string experiment = figure.id;
  const std::string what = figure.title;
  const double user_scale = flags.GetDouble("scale", 1.0);
  const int checkpoints =
      std::max(1, static_cast<int>(flags.GetInt("checkpoints", 5)));

  // The paper tunes on CAIDA; it has duplicates, so the extended
  // (weighted) version of CuckooGraph is used (Section V-A).
  const datasets::Dataset dataset = MakeBenchDataset("CAIDA", user_scale);
  const std::vector<Edge> distinct = datasets::DedupEdges(dataset.stream);

  std::vector<std::string> columns;
  columns.reserve(variants.size());
  for (const auto& [label, config] : variants) columns.push_back(label);

  // (a) Insertion throughput vs #inserted items.
  PrintHeader(experiment, what + " — (a) insertion throughput (Mops)",
              columns);
  std::vector<std::vector<double>> insert_mops(
      static_cast<size_t>(checkpoints));
  std::vector<std::vector<double>> query_mops(
      static_cast<size_t>(checkpoints));
  for (const auto& [label, config] : variants) {
    WeightedCuckooGraph graph(config);
    size_t cursor = 0;
    double insert_seconds = 0.0;
    size_t hits = 0;
    for (int cp = 1; cp <= checkpoints; ++cp) {
      const size_t until = dataset.stream.size() * static_cast<size_t>(cp) /
                           static_cast<size_t>(checkpoints);
      WallTimer timer;
      for (size_t i = cursor; i < until; ++i) {
        graph.AddEdge(dataset.stream[i].u, dataset.stream[i].v);
      }
      insert_seconds += timer.ElapsedSeconds();
      insert_mops[static_cast<size_t>(cp - 1)].push_back(
          Mops(until, insert_seconds));
      // (b) Query throughput at this checkpoint: the structure holds
      // `until` arrivals, so qry@N really measures the N-item structure.
      timer.Reset();
      for (size_t i = 0; i < until; ++i) {
        hits += graph.QueryWeight(dataset.stream[i].u, dataset.stream[i].v) >
                0;
      }
      query_mops[static_cast<size_t>(cp - 1)].push_back(
          Mops(until, timer.ElapsedSeconds()));
      cursor = until;
    }
    (void)hits;
  }
  for (int cp = 1; cp <= checkpoints; ++cp) {
    const size_t until = dataset.stream.size() * static_cast<size_t>(cp) /
                         static_cast<size_t>(checkpoints);
    std::vector<std::string> row{"ins@" + std::to_string(until)};
    for (double m : insert_mops[static_cast<size_t>(cp - 1)]) {
      row.push_back(FmtMops(m));
    }
    PrintRow(experiment, row);
  }

  PrintHeader(experiment, what + " — (b) query throughput (Mops)", columns);
  for (int cp = 1; cp <= checkpoints; ++cp) {
    const size_t until = dataset.stream.size() * static_cast<size_t>(cp) /
                         static_cast<size_t>(checkpoints);
    std::vector<std::string> row{"qry@" + std::to_string(until)};
    for (double m : query_mops[static_cast<size_t>(cp - 1)]) {
      row.push_back(FmtMops(m));
    }
    PrintRow(experiment, row);
  }

  // (c) Memory usage vs #inserted de-duplicated edges.
  PrintHeader(experiment, what + " — (c) memory usage (MB)", columns);
  std::vector<std::unique_ptr<WeightedCuckooGraph>> graphs;
  for (const auto& [label, config] : variants) {
    graphs.push_back(std::make_unique<WeightedCuckooGraph>(config));
  }
  size_t cursor = 0;
  for (int cp = 1; cp <= checkpoints; ++cp) {
    const size_t until = distinct.size() * static_cast<size_t>(cp) /
                         static_cast<size_t>(checkpoints);
    for (auto& graph : graphs) {
      for (size_t i = cursor; i < until; ++i) {
        graph->AddEdge(distinct[i].u, distinct[i].v);
      }
    }
    cursor = until;
    std::vector<std::string> row{"mem@" + std::to_string(until)};
    for (auto& graph : graphs) row.push_back(FmtMb(graph->MemoryBytes()));
    PrintRow(experiment, row);
  }
  return 0;
}

}  // namespace

// Figure 2: cells per bucket d in {4, 8, 16, 32}.
int RunFig2(const Figure& figure, const Flags& flags) {
  std::vector<ParamVariant> variants;
  for (int d : {4, 8, 16, 32}) {
    Config config;
    config.cells_per_bucket = d;
    variants.emplace_back("d=" + std::to_string(d), config);
  }
  return RunParamSweep(figure, flags, variants);
}

// Figure 3: expansion loading-rate threshold G in {0.8, 0.85, 0.9, 0.95}.
int RunFig3(const Figure& figure, const Flags& flags) {
  std::vector<ParamVariant> variants;
  for (double g : {0.8, 0.85, 0.9, 0.95}) {
    Config config;
    config.expand_threshold = g;
    char label[16];
    std::snprintf(label, sizeof(label), "G=%.2f", g);
    variants.emplace_back(label, config);
  }
  return RunParamSweep(figure, flags, variants);
}

// Figure 4: maximum kick-loop count T in {50, 150, 250, 350}.
int RunFig4(const Figure& figure, const Flags& flags) {
  std::vector<ParamVariant> variants;
  for (int t : {50, 150, 250, 350}) {
    Config config;
    config.max_kicks = t;
    variants.emplace_back("T=" + std::to_string(t), config);
  }
  return RunParamSweep(figure, flags, variants);
}

// Figure 5: DENYLIST ablation (Section V-C). "Ours (DL)" is the default
// configuration; "Ours (DL-free)" disables the denylists, so every
// insertion failure immediately expands the affected chain instead (the
// grow-on-failure baseline described in the ablation methodology).
int RunFig5(const Figure& figure, const Flags& flags) {
  Config without_dl;
  without_dl.enable_deny_list = false;
  return RunParamSweep(figure, flags,
                       {{"Ours(DL)", Config()}, {"Ours(DL-free)", without_dl}});
}

}  // namespace cuckoograph::bench
