#include "bench_util.h"

#include <algorithm>
#include <cstdio>

namespace cuckoograph::bench {

namespace {

// The --csv capture target; null when capture is off.
std::FILE* csv_file = nullptr;

// Width of each data column of the last PrintHeader: 15 or the header's
// length, whichever is larger. Every cell prints one space plus its width.
std::vector<int> column_widths;

void PrintCell(size_t column, const std::string& cell) {
  const int width = column < column_widths.size() ? column_widths[column] : 15;
  std::printf(" %*s", width, cell.c_str());
}

void CsvWriteLine(const std::string& experiment, const std::string& label,
                  const std::vector<std::string>& cells) {
  if (csv_file == nullptr) return;
  std::fprintf(csv_file, "%s", experiment.c_str());
  if (!label.empty()) std::fprintf(csv_file, ",%s", label.c_str());
  for (const std::string& cell : cells) {
    std::fprintf(csv_file, ",%s", cell.c_str());
  }
  std::fprintf(csv_file, "\n");
}

double DatasetScale(const std::string& name, double user_scale) {
  // Defaults keep each dataset's stream near 10^5 arrivals while retaining
  // its duplication ratio and skew (the synthetic stand-ins for the paper's
  // Table IV datasets, src/datasets/datasets.h).
  double base = 0.01;
  if (name == "CAIDA") base = 0.02;            // ~540k arrivals, 17k distinct
  if (name == "NotreDame") base = 0.04;        // ~60k edges
  if (name == "StackOverflow") base = 0.002;   // ~127k arrivals
  if (name == "WikiTalk") base = 0.004;        // ~100k arrivals
  if (name == "Weibo") base = 0.0004;          // ~104k edges
  if (name == "DenseGraph") base = 0.002;      // ~115k edges, 357 nodes
  if (name == "SparseGraph") base = 0.004;     // ~120k edges
  double scale = base * user_scale;
  if (scale > 1.0) scale = 1.0;
  if (scale < 1e-6) scale = 1e-6;
  return scale;
}

}  // namespace

bool OpenCsv(const std::string& path) {
  CloseCsv();
  csv_file = std::fopen(path.c_str(), "w");
  if (csv_file == nullptr) {
    std::fprintf(stderr, "error: cannot open --csv file %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

void CloseCsv() {
  if (csv_file != nullptr) {
    std::fclose(csv_file);
    csv_file = nullptr;
  }
}

datasets::Dataset MakeBenchDataset(const std::string& name,
                                   double user_scale) {
  return datasets::MakeByName(name, DatasetScale(name, user_scale));
}

void PrintHeader(const std::string& experiment, const std::string& title,
                 const std::vector<std::string>& columns) {
  std::printf("== %s: %s ==\n", experiment.c_str(), title.c_str());
  std::printf("%-14s", "");
  column_widths.clear();
  for (const std::string& col : columns) {
    column_widths.push_back(std::max(15, static_cast<int>(col.size())));
    PrintCell(column_widths.size() - 1, col);
  }
  std::printf("\n");
  if (csv_file != nullptr) {
    std::fprintf(csv_file, "# %s: %s\n", experiment.c_str(), title.c_str());
    CsvWriteLine(experiment, "label", columns);
  }
}

void PrintRow(const std::string& experiment,
              const std::vector<std::string>& cells) {
  if (!cells.empty()) std::printf("%-14s", cells[0].c_str());
  for (size_t i = 1; i < cells.size(); ++i) PrintCell(i - 1, cells[i]);
  std::printf("\n");
  std::printf("CSV,%s", experiment.c_str());
  for (const std::string& cell : cells) std::printf(",%s", cell.c_str());
  std::printf("\n");
  std::fflush(stdout);
  CsvWriteLine(experiment, "", cells);
}

std::string FmtMops(double mops) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", mops);
  return buf;
}

std::string FmtMb(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

std::string FmtSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", seconds);
  return buf;
}

std::vector<int> PowersOfTwoUpTo(int max) {
  std::vector<int> counts;
  for (int n = 1; n <= max; n *= 2) counts.push_back(n);
  if (!counts.empty() && counts.back() != max) counts.push_back(max);
  return counts;
}

}  // namespace cuckoograph::bench
