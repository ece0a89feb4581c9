// Shared runner for the graph-analytics figures (Figures 10-16). Follows
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
// A diverging cell prints the delta and fails the whole binary with a
// non-zero exit, so the CI smoke runs (--scale 0.01) double as
// correctness gates. --threads sets the kernel + snapshot thread budget
// for the timed cells (the oracle always runs 1-thread).
#ifndef CUCKOOGRAPH_BENCH_ANALYTICS_BENCH_UTIL_H_
#define CUCKOOGRAPH_BENCH_ANALYTICS_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "analytics/csr_snapshot.h"
#include "analytics/kernel.h"
#include "common/types.h"

namespace cuckoograph::bench {

struct AnalyticsFigureSpec {
  std::string experiment;   // e.g. "fig10"
  std::string title;        // e.g. "Running time of BFS (Section V-E1)"
  size_t subgraph_nodes;    // top-degree selection size
  bool subgraph_only;       // insert only the induced subgraph's edges
  // Requires Capabilities().weighted: schemes without it print "-" for the
  // cell, and qualifying schemes get their snapshot built with weights.
  bool needs_weights = false;
  // Oracle tolerance on per-node values: 0 demands exact equality
  // (BFS/SSSP/TC/CC — deterministic contracts at any budget), a small
  // epsilon absorbs float association (PR). Aggregates compare exactly
  // either way.
  double tolerance = 0.0;
  // The timed kernel body: receives the scheme's snapshot, the selected
  // nodes (original ids), and the --threads kernel options; returns the
  // result the oracle checks. Snapshot build time is charged to the cell
  // too.
  std::function<analytics::KernelResult(const analytics::CsrSnapshot&,
                                        const std::vector<NodeId>&,
                                        const analytics::KernelOptions&)>
      kernel;
};

// Parses --scale / --datasets / --schemes / --csv / --threads flags, runs
// the spec over every dataset x scheme, and prints one row per dataset
// (columns = schemes). --schemes takes a comma-separated subset of
// AllSchemeNames(); an unknown entry aborts with the factory's
// valid-scheme listing. Returns non-zero when any cell's result diverges
// from the oracle.
int RunAnalyticsFigure(int argc, char** argv, const AnalyticsFigureSpec& spec);

}  // namespace cuckoograph::bench

#endif  // CUCKOOGRAPH_BENCH_ANALYTICS_BENCH_UTIL_H_
