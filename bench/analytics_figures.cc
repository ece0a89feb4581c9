// The graph-analytics figures (Figures 10-16), one AnalyticsFigureSpec row
// each over one shared runner. Follows
// the Section V-E methodology: the top-degree node set is selected once per
// dataset (on a reference snapshot, so every scheme sees the same nodes),
// and either the whole dataset (BFS/SSSP/TC) or the extracted subgraph
// (CC/PR/BC/LCC) is inserted into each scheme. The timed region is the
// scheme's snapshot materialization (CsrSnapshot::FromStore — the store's
// extract cost) plus the kernel over the flat CSR.
//
// Every cell is oracle-checked: the kernel's KernelResult is compared
// against a reference run (one lane, on a reference store holding the
// same edges) — aggregates exactly, per-node values to spec.tolerance.
// A diverging cell prints the delta and fails the figure with a non-zero
// exit, so the smoke runs (--scale 0.01) double as correctness gates.
// --threads sets the kernel + snapshot thread budget for the timed cells
// (the oracle always runs 1-thread). --schemes takes a comma-separated
// subset of AllSchemeNames() (an unknown entry aborts with the factory's
// valid-scheme listing) and --datasets one dataset name.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/bfs.h"
#include "analytics/common.h"
#include "analytics/connected_components.h"
#include "analytics/csr_snapshot.h"
#include "analytics/kernel.h"
#include "analytics/lcc.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/triangle_count.h"
#include "baselines/store_factory.h"
#include "bench_util.h"
#include "common/timer.h"
#include "datasets/datasets.h"
#include "figures.h"

namespace cuckoograph::bench {

namespace {

// Compares a cell's result against the dataset's oracle. Aggregates are
// exact; per-node values allow `tolerance` (0 = exact). Returns false and
// prints the first divergence when the cell is wrong.
bool CheckAgainstOracle(const std::string& experiment,
                        const std::string& dataset,
                        const std::string& scheme,
                        const analytics::KernelResult& got,
                        const analytics::KernelResult& want,
                        double tolerance) {
  if (got.aggregate != want.aggregate) {
    std::fprintf(stderr,
                 "%s: ORACLE DIVERGENCE %s/%s: aggregate %llu != %llu\n",
                 experiment.c_str(), dataset.c_str(), scheme.c_str(),
                 static_cast<unsigned long long>(got.aggregate),
                 static_cast<unsigned long long>(want.aggregate));
    return false;
  }
  if (got.per_node.size() != want.per_node.size()) {
    std::fprintf(stderr,
                 "%s: ORACLE DIVERGENCE %s/%s: %zu per-node values, "
                 "expected %zu\n",
                 experiment.c_str(), dataset.c_str(), scheme.c_str(),
                 got.per_node.size(), want.per_node.size());
    return false;
  }
  for (size_t v = 0; v < want.per_node.size(); ++v) {
    const double a = got.per_node[v];
    const double b = want.per_node[v];
    const bool equal =
        tolerance == 0.0 ? a == b : std::fabs(a - b) <= tolerance;
    if (!equal && !(std::isinf(a) && std::isinf(b))) {
      std::fprintf(stderr,
                   "%s: ORACLE DIVERGENCE %s/%s: per_node[%zu] = %.17g, "
                   "expected %.17g (tolerance %g)\n",
                   experiment.c_str(), dataset.c_str(), scheme.c_str(), v,
                   a, b, tolerance);
      return false;
    }
  }
  return true;
}

using Nodes = std::vector<NodeId>;

struct AnalyticsFigureSpec {
  const char* id;         // the registry row this spec runs
  size_t subgraph_nodes;  // top-degree selection size
  bool subgraph_only;     // insert only the induced subgraph's edges
  // Requires Capabilities().weighted: schemes without it print "-" for the
  // cell, and qualifying schemes get their snapshot built with weights.
  bool needs_weights;
  // Oracle tolerance on per-node values: 0 demands exact equality
  // (BFS/SSSP/TC/CC — deterministic contracts at any budget), a small
  // epsilon absorbs float association (PR). Aggregates compare exactly
  // either way.
  double tolerance;
  // The timed kernel body: receives the scheme's snapshot, the selected
  // nodes (original ids), and the --threads kernel options; returns the
  // result the oracle checks. Snapshot build time is charged to the cell
  // too.
  analytics::KernelResult (*kernel)(const analytics::CsrSnapshot&,
                                    const Nodes&,
                                    const analytics::KernelOptions&);
};

// Runs `run` from each of the first `count` nodes in turn; the oracle sees
// the last run's per-node values plus the aggregate summed over runs.
template <typename Run>
analytics::KernelResult PerSource(const Nodes& nodes, size_t count,
                                  Run run) {
  analytics::KernelResult combined;
  for (size_t s = 0; s < std::min(count, nodes.size()); ++s) {
    analytics::KernelResult one = run(Span<const NodeId>(&nodes[s], 1));
    combined.aggregate += one.aggregate;
    combined.per_node = std::move(one.per_node);
  }
  return combined;
}

// Figure 10 (V-E1): BFS from the five top-degree roots over the whole
// dataset. BFS runs sequentially at any thread budget (--threads still
// parallelizes the snapshot build).
analytics::KernelResult Bfs(const analytics::CsrSnapshot& graph,
                            const Nodes& roots,
                            const analytics::KernelOptions& opts) {
  return PerSource(roots, roots.size(), [&](Span<const NodeId> root) {
    return analytics::bfs::Run(graph, root, opts);
  });
}

// Figure 11 (V-E2): delta-stepping SSSP from each of the 10 top-degree
// nodes over the whole weighted dataset (duplicate arrivals accumulate as
// weight). Distances are exact: the fixed point is unique, whatever the
// path.
analytics::KernelResult Sssp(const analytics::CsrSnapshot& graph,
                             const Nodes& nodes,
                             const analytics::KernelOptions& opts) {
  return PerSource(nodes, 10, [&](Span<const NodeId> source) {
    return analytics::sssp::Run(graph, source, opts);
  });
}

// Figure 12 (V-E3): per top-degree node, enumerate 2-hop successors and
// probe the closing edges. Counts are integers written disjointly at any
// thread budget.
analytics::KernelResult TriangleCount(const analytics::CsrSnapshot& graph,
                                      const Nodes& nodes,
                                      const analytics::KernelOptions& opts) {
  return analytics::triangle_count::Run(graph, nodes, opts);
}

// Figure 13 (V-E4): iterative Tarjan SCC over the whole (already induced)
// snapshot; contractually sequential at any thread budget.
analytics::KernelResult Components(const analytics::CsrSnapshot& graph,
                                   const Nodes&,
                                   const analytics::KernelOptions& opts) {
  return analytics::connected_components::Run(graph, Span<const NodeId>(),
                                              opts);
}

// Figure 14 (V-E5): 100 PageRank iterations over the whole (already
// induced) snapshot; sequential at any thread budget.
analytics::KernelResult PageRank(const analytics::CsrSnapshot& graph,
                                 const Nodes&,
                                 const analytics::KernelOptions& opts) {
  return analytics::pagerank::Run(graph, Span<const NodeId>(), opts);
}

// Figure 15 (V-E6): Brandes with the subgraph nodes as pivots;
// contractually sequential at any thread budget.
analytics::KernelResult Betweenness(const analytics::CsrSnapshot& graph,
                                    const Nodes& nodes,
                                    const analytics::KernelOptions& opts) {
  return analytics::betweenness::Run(graph, nodes, opts);
}

// Figure 16 (V-E7): neighbourhood links counted with CSR edge probes (the
// parallel kernel is bit-identical by contract; the 1e-9 tolerance is
// headroom, not a requirement).
analytics::KernelResult Lcc(const analytics::CsrSnapshot& graph,
                            const Nodes& nodes,
                            const analytics::KernelOptions& opts) {
  return analytics::lcc::Run(graph, nodes, opts);
}

// Whole-dataset kernels (BFS/SSSP/TC) run from the top-degree nodes;
// subgraph kernels (CC/PR/BC/LCC) run on the induced top-degree subgraph.
constexpr AnalyticsFigureSpec kSpecs[] = {
    {"fig10", 5, false, false, 0.0, Bfs},
    {"fig11", 100, false, true, 0.0, Sssp},
    {"fig12", 10, false, false, 0.0, TriangleCount},
    {"fig13", 1500, true, false, 0.0, Components},
    {"fig14", 1500, true, false, 1e-9, PageRank},
    {"fig15", 400, true, false, 1e-9, Betweenness},
    {"fig16", 250, true, false, 1e-9, Lcc},
};

}  // namespace

int RunAnalyticsFigure(const Figure& figure, const Flags& flags) {
  const AnalyticsFigureSpec* found = nullptr;
  for (const AnalyticsFigureSpec& candidate : kSpecs) {
    if (std::string(figure.id) == candidate.id) found = &candidate;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "%s: no analytics spec\n", figure.id);
    return 2;
  }
  const AnalyticsFigureSpec& spec = *found;
  const std::string experiment = figure.id;
  const double user_scale = flags.GetDouble("scale", 1.0);
  const std::string only_dataset = flags.GetString("datasets", "");
  const size_t threads =
      static_cast<size_t>(std::max(1ll, flags.GetInt("threads", 1)));
  // --schemes takes a comma-separated subset; validation (with the list of
  // valid names on error) is the factory's, same as MakeStoreByName.
  std::vector<std::string> selected;
  try {
    selected = ParseSchemesFlag(flags.GetString("schemes", ""));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", figure.id, e.what());
    return 2;
  }

  const auto is_selected = [&selected](const std::string& scheme) {
    return std::find(selected.begin(), selected.end(), scheme) !=
           selected.end();
  };

  analytics::CsrSnapshot::Options snapshot_opts;
  snapshot_opts.with_weights = spec.needs_weights;
  snapshot_opts.num_threads = threads;
  analytics::KernelOptions kernel_opts;
  kernel_opts.num_threads = threads;

  bool all_cells_correct = true;
  PrintHeader(experiment,
              std::string(figure.title) +
                  " — seconds per run (snapshot + kernel)" +
                  (threads > 1 ? ", threads=" + std::to_string(threads)
                               : std::string()),
              AllSchemeNames());
  for (const std::string& dataset_name : datasets::AllDatasetNames()) {
    if (!only_dataset.empty() && only_dataset != dataset_name) continue;
    const datasets::Dataset dataset =
        MakeBenchDataset(dataset_name, user_scale);

    // Reference load + snapshot: used only for node selection and subgraph
    // extraction so every scheme receives identical inputs.
    auto reference = MakeStoreByName("CuckooGraph");
    reference->InsertEdges(dataset.stream);
    const analytics::CsrSnapshot reference_snapshot =
        analytics::CsrSnapshot::FromStore(*reference);
    const std::vector<NodeId> top_nodes =
        analytics::TopDegreeNodes(reference_snapshot, spec.subgraph_nodes);
    const std::vector<Edge> subgraph_edges =
        spec.subgraph_only
            ? analytics::InducedSubgraph(reference_snapshot, top_nodes)
            : std::vector<Edge>();

    // The dataset's oracle: the same edges in a reference store (weighted
    // when the figure needs weights), snapshotted and run at one lane.
    // Untimed — it gates correctness, not the reported cells.
    analytics::KernelResult oracle;
    {
      auto oracle_store = MakeStoreByName(
          spec.needs_weights ? "cuckoo-weighted" : "CuckooGraph");
      oracle_store->InsertEdges(spec.subgraph_only
                                    ? Span<const Edge>(subgraph_edges)
                                    : Span<const Edge>(dataset.stream));
      analytics::CsrSnapshot::Options oracle_snapshot_opts;
      oracle_snapshot_opts.with_weights = spec.needs_weights;
      const analytics::CsrSnapshot oracle_snapshot =
          analytics::CsrSnapshot::FromStore(*oracle_store,
                                            oracle_snapshot_opts);
      oracle = spec.kernel(oracle_snapshot, top_nodes,
                           analytics::KernelOptions{});
    }

    std::vector<std::string> row{dataset_name};
    for (const std::string& scheme : AllSchemeNames()) {
      if (!is_selected(scheme)) {
        row.push_back("-");
        continue;
      }
      auto store = MakeStoreByName(scheme);
      if (spec.needs_weights && !store->Capabilities().weighted) {
        row.push_back("-");  // the scheme cannot serve this kernel
        continue;
      }
      store->InsertEdges(spec.subgraph_only ? Span<const Edge>(subgraph_edges)
                                            : Span<const Edge>(dataset.stream));
      WallTimer timer;
      const analytics::CsrSnapshot snapshot =
          analytics::CsrSnapshot::FromStore(*store, snapshot_opts);
      const analytics::KernelResult result =
          spec.kernel(snapshot, top_nodes, kernel_opts);
      row.push_back(FmtSeconds(timer.ElapsedSeconds()));
      if (!CheckAgainstOracle(experiment, dataset_name, scheme, result,
                              oracle, spec.tolerance)) {
        all_cells_correct = false;
      }
    }
    PrintRow(experiment, row);
  }
  if (!all_cells_correct) {
    std::fprintf(stderr, "%s: FAILED — kernel output diverged from the "
                 "oracle (see above)\n",
                 experiment.c_str());
    return 1;
  }
  return 0;
}

}  // namespace cuckoograph::bench
