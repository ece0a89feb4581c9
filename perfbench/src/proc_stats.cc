#include "proc_stats.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace perfbench {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char buf[4096];
  out->clear();
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

// Value of the "<key>:" line of a /proc key-value file.
bool FindField(const std::string& text, const char* key, uint64_t* out) {
  const std::string needle = std::string(key) + ":";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      *out = std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
      return true;
    }
    pos += needle.size();
  }
  return false;
}

// utime + stime from a stat line, in nanoseconds. Fields 14 and 15 count
// from after the parenthesised command name, which may contain spaces.
bool StatCpuNs(const std::string& stat, uint64_t* out) {
  const size_t close = stat.rfind(')');
  if (close == std::string::npos || close + 2 >= stat.size()) return false;
  const char* p = stat.c_str() + close + 2;  // field 3 (state)
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(p, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return false;
  }
  const long hz = sysconf(_SC_CLK_TCK);
  *out = (utime + stime) * (1000000000ULL / static_cast<uint64_t>(hz));
  return true;
}

}  // namespace

ThreadCounters& ThreadCounters::operator+=(const ThreadCounters& o) {
  cpu_ns += o.cpu_ns;
  syscr += o.syscr;
  syscw += o.syscw;
  write_bytes += o.write_bytes;
  voluntary_ctx += o.voluntary_ctx;
  involuntary_ctx += o.involuntary_ctx;
  return *this;
}

ThreadCounters ThreadCounters::operator-(const ThreadCounters& o) const {
  ThreadCounters d;
  d.cpu_ns = cpu_ns - o.cpu_ns;
  d.syscr = syscr - o.syscr;
  d.syscw = syscw - o.syscw;
  d.write_bytes = write_bytes - o.write_bytes;
  d.voluntary_ctx = voluntary_ctx - o.voluntary_ctx;
  d.involuntary_ctx = involuntary_ctx - o.involuntary_ctx;
  return d;
}

bool ReadThreadCounters(pid_t tid, ThreadCounters* out) {
  const std::string dir = "/proc/self/task/" + std::to_string(tid) + "/";
  ThreadCounters c;
  std::string text;
  if (ReadFile(dir + "schedstat", &text) && !text.empty()) {
    c.cpu_ns = std::strtoull(text.c_str(), nullptr, 10);
  } else if (!ReadFile(dir + "stat", &text) || !StatCpuNs(text, &c.cpu_ns)) {
    return false;
  }
  if (!ReadFile(dir + "io", &text) || !FindField(text, "syscr", &c.syscr) ||
      !FindField(text, "syscw", &c.syscw) ||
      !FindField(text, "write_bytes", &c.write_bytes)) {
    return false;
  }
  if (!ReadFile(dir + "status", &text) ||
      !FindField(text, "voluntary_ctxt_switches", &c.voluntary_ctx) ||
      !FindField(text, "nonvoluntary_ctxt_switches", &c.involuntary_ctx)) {
    return false;
  }
  *out = c;
  return true;
}

bool ReadThreadsCounters(const std::vector<pid_t>& tids, ThreadCounters* out) {
  ThreadCounters sum;
  for (pid_t tid : tids) {
    ThreadCounters c;
    if (!ReadThreadCounters(tid, &c)) return false;
    sum += c;
  }
  *out = sum;
  return true;
}

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<pid_t> ListThreads() {
  std::vector<pid_t> tids;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return tids;
  while (const dirent* entry = ::readdir(d)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
  }
  ::closedir(d);
  std::sort(tids.begin(), tids.end());
  return tids;
}

uint64_t ProcessWriteBytes() {
  std::string text;
  uint64_t v = 0;
  if (ReadFile("/proc/self/io", &text)) FindField(text, "write_bytes", &v);
  return v;
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t VmRssBytes() {
  std::string text;
  uint64_t kb = 0;
  if (ReadFile("/proc/self/status", &text)) FindField(text, "VmRSS", &kb);
  return kb * 1024;
}

}  // namespace perfbench
