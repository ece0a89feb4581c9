// The figure registry behind `cuckoograph_bench --figure <id> [flags]`:
// one row per reproduced exhibit of the paper (Theorems 1-2, Tables II-IV,
// Figures 2-18) plus the ablations and the beyond-the-paper scalability
// and served-traffic sweeps. docs/REPRODUCING.md maps each id to its paper
// section.
//
// The driver owns everything the rows share: it rejects an unknown figure,
// an undeclared flag or a value that does not parse as its declared type
// (exit 2, listing what the figure accepts), opens the --csv capture for
// rows that declare it, and returns the row's exit code — non-zero when a
// figure's own correctness check fails.
#ifndef CUCKOOGRAPH_BENCH_FIGURES_H_
#define CUCKOOGRAPH_BENCH_FIGURES_H_

#include <string>
#include <vector>

#include "common/flags.h"

namespace cuckoograph::bench {

struct Figure {
  const char* id;       // the --figure value and the CSV experiment tag
  const char* title;    // the figure's (first) table header
  const char* section;  // paper section; "-" beyond the paper
  std::vector<FlagSpec> flags;
  // Arguments that make the figure finish in seconds (the tier-1 smoke
  // test runs every row with them).
  std::vector<std::string> smoke_args;
  // The figure body. Returns the process exit code.
  int (*run)(const Figure& figure, const Flags& flags);
};

// Every figure, in the order the usage text lists them.
const std::vector<Figure>& AllFigures();

// The row named `id`, or null.
const Figure* FindFigure(const std::string& id);

// The cuckoograph_bench command line: --figure <id> plus that figure's
// flags. Returns the process exit code.
int RunFigureCommand(int argc, char** argv);

// ---- Figure bodies (the registry's run functions) --------------------------

// core_figures.cc: core-structure exhibits over CuckooGraph alone.
int RunTheorem1(const Figure& figure, const Flags& flags);
int RunTheorem2(const Figure& figure, const Flags& flags);
int RunTable2(const Figure& figure, const Flags& flags);
int RunTable4(const Figure& figure, const Flags& flags);
int RunAblationInline(const Figure& figure, const Flags& flags);
int RunAblationReverseTransform(const Figure& figure, const Flags& flags);
int RunFig2(const Figure& figure, const Flags& flags);
int RunFig3(const Figure& figure, const Flags& flags);
int RunFig4(const Figure& figure, const Flags& flags);
int RunFig5(const Figure& figure, const Flags& flags);

// basic_task_figures.cc: every factory scheme on the Table IV datasets.
int RunFig6(const Figure& figure, const Flags& flags);
int RunFig7(const Figure& figure, const Flags& flags);
int RunFig8(const Figure& figure, const Flags& flags);
int RunFig9(const Figure& figure, const Flags& flags);
int RunTable3(const Figure& figure, const Flags& flags);

// analytics_figures.cc: Figures 10-16, one AnalyticsFigureSpec per id.
int RunAnalyticsFigure(const Figure& figure, const Flags& flags);

// integration_figures.cc: the Redis and Neo4j integrations.
int RunFig17(const Figure& figure, const Flags& flags);
int RunFig18(const Figure& figure, const Flags& flags);

// scalability_figure.cc / served_figure.cc: beyond the paper.
int RunScalability(const Figure& figure, const Flags& flags);
int RunServed(const Figure& figure, const Flags& flags);

}  // namespace cuckoograph::bench

#endif  // CUCKOOGRAPH_BENCH_FIGURES_H_
