#include "analytics_bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "analytics/common.h"
#include "baselines/store_factory.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/timer.h"
#include "datasets/datasets.h"

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

}  // namespace

int RunAnalyticsFigure(int argc, char** argv,
                       const AnalyticsFigureSpec& spec) {
  const Flags flags(argc, argv);
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
    std::fprintf(stderr, "%s: %s\n", spec.experiment.c_str(), e.what());
    return 2;
  }
  MaybeOpenCsvFromFlags(flags);

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
  PrintHeader(spec.experiment,
              spec.title + " — seconds per run (snapshot + kernel)" +
                  (threads > 1
                       ? ", threads=" + std::to_string(threads)
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
      if (!CheckAgainstOracle(spec.experiment, dataset_name, scheme, result,
                              oracle, spec.tolerance)) {
        all_cells_correct = false;
      }
    }
    PrintRow(spec.experiment, row);
  }
  CloseCsv();
  if (!all_cells_correct) {
    std::fprintf(stderr, "%s: FAILED — kernel output diverged from the "
                 "oracle (see above)\n",
                 spec.experiment.c_str());
    return 1;
  }
  return 0;
}

}  // namespace cuckoograph::bench
