#include "trace.h"

#include <cstdio>

namespace perfbench {
namespace {
thread_local uint32_t current_span = Tracer::kNoSpan;
}  // namespace

bool InSpan() { return current_span != Tracer::kNoSpan; }

Tracer::Tracer(size_t capacity) : records_(capacity) {}

uint32_t Tracer::Begin() {
  return next_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::End(uint32_t id, const char* name, uint64_t start_ns,
                 uint64_t end_ns, uint32_t parent) {
  if (id == kNoSpan || id > records_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  records_[id - 1] = Record{name, start_ns, end_ns, parent};
}

size_t Tracer::recorded() const {
  const size_t issued = next_.load(std::memory_order_relaxed) - 1;
  return issued < records_.size() ? issued : records_.size();
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < recorded(); ++i) {
    const Record& r = records_[i];
    if (r.name == nullptr) continue;
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%u}\n",
                 i + 1, r.name, static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns), r.parent);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name), start_ns_(NowNs()) {
  if (tracer_ != nullptr) {
    id_ = tracer_->Begin();
    parent_ = current_span;
    current_span = id_;
  }
}

uint64_t ScopedSpan::Finish() {
  const uint64_t end = NowNs();
  if (!finished_ && tracer_ != nullptr) {
    tracer_->End(id_, name_, start_ns_, end, parent_);
    current_span = parent_;
  }
  finished_ = true;
  return end - start_ns_;
}

ScopedSpan::~ScopedSpan() {
  if (!finished_) Finish();
}

}  // namespace perfbench
