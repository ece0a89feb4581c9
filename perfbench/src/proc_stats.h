// Per-thread and per-process accounting read from /proc, so the benchmark
// can charge CPU time, syscalls, context switches and disk writes to the
// threads of one layer (the server's workers, the load generator) without
// instrumenting the program.
#ifndef PERFBENCH_PROC_STATS_H_
#define PERFBENCH_PROC_STATS_H_

#include <sys/types.h>

#include <cstdint>
#include <vector>

namespace perfbench {

struct ThreadCounters {
  uint64_t cpu_ns = 0;           // schedstat run time (stat ticks if absent)
  uint64_t syscr = 0;            // read-family syscalls (io)
  uint64_t syscw = 0;            // write-family syscalls (io)
  uint64_t write_bytes = 0;      // bytes sent to storage (io)
  uint64_t voluntary_ctx = 0;    // status: voluntary_ctxt_switches
  uint64_t involuntary_ctx = 0;  // status: nonvoluntary_ctxt_switches

  ThreadCounters& operator+=(const ThreadCounters& o);
  ThreadCounters operator-(const ThreadCounters& o) const;
};

// Counters of thread `tid` of this process, from
// /proc/self/task/<tid>/{schedstat,stat,io,status}. False when any file
// is unreadable (the thread exited, or /proc is not mounted).
bool ReadThreadCounters(pid_t tid, ThreadCounters* out);

// Sum over `tids`; false when any read fails.
bool ReadThreadsCounters(const std::vector<pid_t>& tids, ThreadCounters* out);

// The calling thread's kernel id.
pid_t CurrentTid();

// Ids of every live thread of this process, ascending.
std::vector<pid_t> ListThreads();

// Process-wide write_bytes from /proc/self/io (0 when unreadable).
uint64_t ProcessWriteBytes();

// Process-wide CPU time (user + system) in nanoseconds.
uint64_t ProcessCpuNs();

// Resident set size from /proc/self/status, in bytes (0 when unreadable).
uint64_t VmRssBytes();

}  // namespace perfbench

#endif  // PERFBENCH_PROC_STATS_H_
