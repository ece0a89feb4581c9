#include "figures.h"

#include <cstdio>

#include "bench_util.h"

namespace cuckoograph::bench {

namespace {

std::string FlagList(const Figure& figure) {
  std::string list;
  for (const FlagSpec& flag : figure.flags) {
    list += std::string(list.empty() ? "--" : " --") + flag.name;
  }
  return list.empty() ? "(none)" : list;
}

void PrintUsage() {
  std::fprintf(stderr, "usage: cuckoograph_bench --figure <id> [flags]\n");
  for (const Figure& figure : AllFigures()) {
    std::fprintf(stderr, "  %-16s %-6s %s\n  %16s flags: %s\n", figure.id,
                 figure.section, figure.title, "", FlagList(figure).c_str());
  }
}

}  // namespace

const std::vector<Figure>& AllFigures() {
  constexpr FlagSpec kScale{"scale", FlagType::kDouble};
  constexpr FlagSpec kCsv{"csv", FlagType::kString};
  // Integer flags carry the range the figure bodies can run with: each
  // size becomes a size_t and each thread count starts that many threads.
  constexpr FlagSpec kCheckpoints{"checkpoints", FlagType::kInt, 1, 1000};
  constexpr FlagSpec kThreads{"threads", FlagType::kInt, 1, 256};
  constexpr FlagSpec kAlpha{"alpha", FlagType::kDouble};
  constexpr FlagSpec kReads{"reads", FlagType::kDouble};
  constexpr FlagSpec kDurableDir{"durable-dir", FlagType::kString};
  const std::vector<FlagSpec> sweep{kScale, kCheckpoints, kCsv};
  const std::vector<FlagSpec> analytics{kScale,
                                        kCsv,
                                        {"schemes", FlagType::kString},
                                        {"datasets", FlagType::kString},
                                        kThreads};
  const std::vector<std::string> smoke{"--scale", "0.01"};
  static const auto* figures = new std::vector<Figure>{
      {"theorem1", "avg insertions per item (paper: ~1.017 L, ~1.006 S)",
       "IV-A", {kScale}, smoke, RunTheorem1},
      {"theorem2", "amortized L-CHT insertion cost (bound: <=3N, E<=2.25N)",
       "IV-A", {{"nodes", FlagType::kInt, 1, 100'000'000}},
       {"--nodes", "100000"},
       RunTheorem2},
      {"table2", "S-CHT transformation states", "IV", {}, {}, RunTable2},
      {"table3", "analytic complexity (paper Table III)", "V-D",
       {{"max_edges", FlagType::kInt, 1, 100'000'000}, kCsv},
       {"--max_edges", "40000"},
       RunTable3},
      {"table4", "Graph datasets (generated at bench scale)", "V-A",
       {kScale}, smoke, RunTable4},
      {"fig2", "tuning d", "V-B", sweep, smoke, RunFig2},
      {"fig3", "tuning G", "V-B", sweep, smoke, RunFig3},
      {"fig4", "tuning T", "V-B", sweep, smoke, RunFig4},
      {"fig5", "DENYLIST ablation", "V-C", sweep, smoke, RunFig5},
      {"fig6", "Insertion throughput (Mops, higher is better)", "V-D",
       {kScale, kCsv, kDurableDir}, smoke, RunFig6},
      {"fig7", "Query throughput (Mops, higher is better)", "V-D",
       {kScale, kCsv}, smoke, RunFig7},
      {"fig8", "Deletion throughput (Mops, higher is better)", "V-D",
       {kScale, kCsv}, smoke, RunFig8},
      {"fig9", "Memory usage (MB) vs #inserted dedup edges", "V-D", sweep,
       smoke, RunFig9},
      {"fig10", "BFS running time (V-E1)", "V-E1", analytics, smoke,
       RunAnalyticsFigure},
      {"fig11", "SSSP (x10 sources) running time (V-E2)", "V-E2", analytics,
       smoke, RunAnalyticsFigure},
      {"fig12", "Triangle Counting running time (V-E3)", "V-E3", analytics,
       smoke, RunAnalyticsFigure},
      {"fig13", "Connected Components (Tarjan) running time (V-E4)", "V-E4",
       analytics, smoke, RunAnalyticsFigure},
      {"fig14", "PageRank (100 iterations) running time (V-E5)", "V-E5",
       analytics, smoke, RunAnalyticsFigure},
      {"fig15", "Betweenness Centrality (Brandes) running time (V-E6)",
       "V-E6", analytics, smoke, RunAnalyticsFigure},
      {"fig16", "Local Clustering Coefficient running time (V-E7)", "V-E7",
       analytics, smoke, RunAnalyticsFigure},
      {"fig17", "CuckooGraph on Redis-sim (Mops through RESP)", "V-F",
       {kScale, kCsv, kAlpha, kReads}, smoke, RunFig17},
      {"fig18", "Neo4j-sim running time (seconds)", "V-G", {kScale, kCsv},
       smoke, RunFig18},
      {"ablation_inline", "inline small slots: insert/query Mops and memory",
       "-", {kScale}, smoke, RunAblationInline},
      {"ablation_rt", "reverse transformation: memory after deleting 90%",
       "-", {kScale}, smoke, RunAblationReverseTransform},
      {"scalability", "Thread sweep, aggregate Mops", "-",
       {kScale, kCsv, kThreads, {"shards", FlagType::kInt, 1, 4096}}, smoke,
       RunScalability},
      {"served",
       "CuckooGraph served over TCP RESP (Mops, pipelined, oracle-checked)",
       "-",
       {kScale, kCsv, {"connections", FlagType::kInt, 1, 256},
        {"workers", FlagType::kInt, 1, 64},
        {"pipeline", FlagType::kInt, 1, 4096}, kAlpha, kReads, kDurableDir},
       smoke, RunServed},
  };
  return *figures;
}

const Figure* FindFigure(const std::string& id) {
  for (const Figure& figure : AllFigures()) {
    if (id == figure.id) return &figure;
  }
  return nullptr;
}

int RunFigureCommand(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string id = flags.GetString("figure", "");
  const Figure* figure = FindFigure(id);
  if (figure == nullptr) {
    if (!id.empty()) std::fprintf(stderr, "unknown figure '%s'\n", id.c_str());
    PrintUsage();
    return 2;
  }
  std::vector<FlagSpec> accepted = figure->flags;
  accepted.push_back({"figure", FlagType::kString});
  const std::string error = flags.Validate(accepted);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n%s accepts: %s\n", figure->id,
                 error.c_str(), figure->id, FlagList(*figure).c_str());
    return 2;
  }
  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty() && !OpenCsv(csv)) return 2;
  const int status = figure->run(*figure, flags);
  CloseCsv();
  return status;
}

}  // namespace cuckoograph::bench
