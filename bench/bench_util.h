// Shared plumbing for the figure/table reproductions: per-dataset default
// scales (sized so every figure finishes quickly on one core while keeping
// the paper's relative shapes), row printing and CSV capture.
#ifndef CUCKOOGRAPH_BENCH_BENCH_UTIL_H_
#define CUCKOOGRAPH_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/timer.h"
#include "common/types.h"
#include "datasets/datasets.h"

namespace cuckoograph::bench {

// Generates a Table IV dataset scaled down to a laptop-sized default
// stream (roughly 50k-500k arrivals). `user_scale` multiplies the default;
// pass --scale=50 (for example) to approach the paper's full sizes.
datasets::Dataset MakeBenchDataset(const std::string& name,
                                   double user_scale);

// Prints the standard bench header: figure id, paper reference, columns.
void PrintHeader(const std::string& experiment, const std::string& title,
                 const std::vector<std::string>& columns);

// Prints one row aligned to the last header's columns (every cell keeps at
// least one space from its neighbour), followed by a machine-readable CSV
// echo.
void PrintRow(const std::string& experiment,
              const std::vector<std::string>& cells);

// ---- CSV capture (--csv <path>) -------------------------------------------
// When a capture file is open, every PrintHeader writes a column row and
// every PrintRow appends a data row to it, in addition to stdout.

// Opens (truncates) `path` as the CSV capture target. Returns false and
// leaves capture off when the file cannot be created.
bool OpenCsv(const std::string& path);

// Flushes and closes the capture file (no-op when none is open).
void CloseCsv();

// Formats helpers.
std::string FmtMops(double mops);
std::string FmtMb(size_t bytes);
std::string FmtSeconds(double seconds);

// 1, 2, 4, ... up to `max`, ending with `max` itself when it is not a
// power of two: the thread and connection counts of the sweeps. Empty
// when `max` < 1.
std::vector<int> PowersOfTwoUpTo(int max);

}  // namespace cuckoograph::bench

#endif  // CUCKOOGRAPH_BENCH_BENCH_UTIL_H_
