// Traversal scratch shared by the kernels: a word-packed visited bitmap
// and a two-slot frontier. Both are sized to the snapshot's dense vertex
// space, so kernel state is flat arrays — no hashing on the hot path.
#ifndef CUCKOOGRAPH_ANALYTICS_FRONTIER_H_
#define CUCKOOGRAPH_ANALYTICS_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analytics/csr_snapshot.h"
#include "common/span.h"

namespace cuckoograph::analytics {

class VisitedBitmap {
 public:
  explicit VisitedBitmap(size_t bits) : words_((bits + 63) / 64, 0) {}

  bool Test(DenseId i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(DenseId i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  // Sets bit `i`; returns true iff it was previously clear (the caller won
  // the visit).
  bool TestAndSet(DenseId i) {
    const uint64_t mask = uint64_t{1} << (i & 63);
    const bool fresh = (words_[i >> 6] & mask) == 0;
    words_[i >> 6] |= mask;
    return fresh;
  }

  void Clear() { words_.assign(words_.size(), 0); }

 private:
  std::vector<uint64_t> words_;
};

// Current/next vertex queues with O(1) generation swap.
class Frontier {
 public:
  explicit Frontier(size_t capacity_hint = 0) {
    current_.reserve(capacity_hint);
    next_.reserve(capacity_hint);
  }

  void PushCurrent(DenseId v) { current_.push_back(v); }
  void PushNext(DenseId v) { next_.push_back(v); }

  Span<const DenseId> Current() const {
    return Span<const DenseId>(current_);
  }

  bool CurrentEmpty() const { return current_.empty(); }
  bool NextEmpty() const { return next_.empty(); }

  // Promotes next to current and empties next.
  void Advance() {
    current_.swap(next_);
    next_.clear();
  }

 private:
  std::vector<DenseId> current_;
  std::vector<DenseId> next_;
};

}  // namespace cuckoograph::analytics

#endif  // CUCKOOGRAPH_ANALYTICS_FRONTIER_H_
