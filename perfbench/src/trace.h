// In-memory span recorder for the traced run. A span is (name, start,
// end, parent) around one call into a layer; spans nest per thread. The
// buffer is preallocated and bounded: callers sample per-op calls at a
// fixed rate, and spans past the capacity are counted, not stored.
// Write() dumps the spans as JSON lines when the benchmark ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  // Span id 0 means "no parent".
  static constexpr uint32_t kNoSpan = 0;

  explicit Tracer(size_t capacity);

  // Reserves a span id; the span is stored when End() is called.
  uint32_t Begin();
  void End(uint32_t id, const char* name, uint64_t start_ns,
           uint64_t end_ns, uint32_t parent);

  size_t recorded() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Writes one JSON object per stored span to `path`. False on I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Record {
    const char* name = nullptr;  // string literal; null = slot unused
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t parent = kNoSpan;
  };
  std::vector<Record> records_;  // index = span id - 1
  std::atomic<uint32_t> next_{1};
  std::atomic<uint64_t> dropped_{0};
};

// Whether the calling thread is inside a stored span, so a callee can
// keep its own span only when its caller's was sampled.
bool InSpan();

// RAII span: stores nothing when `tracer` is null, but still times, so
// one object serves as both the span and the timer of a call. Spans
// opened on one thread while another is open become its children.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span now and returns its duration in nanoseconds.
  uint64_t Finish();

 private:
  Tracer* tracer_;
  const char* name_;
  uint32_t id_ = Tracer::kNoSpan;
  uint32_t parent_ = Tracer::kNoSpan;
  uint64_t start_ns_;
  bool finished_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
