// One per-vertex S-CHT chain (up to R cuckoo tables plus the chain's
// DENYLIST) in a single heap allocation, so a neighbour probe costs its
// candidate buckets instead of a pointer chase through per-table objects
// and parallel arrays.
//
// Layout (byte offsets from the block start):
//
//   [header]       the shape (table count, head bucket count, cells per
//                  bucket d, denylist capacity), the chain's size, the
//                  denylist count, then each table's size
//   [Cell x cap]   the denylist, edited in place (count published to
//                  optimistic readers with a release store)
//   [buckets]      every table's buckets back to back, head table first;
//                  one bucket = d fingerprint bytes (0 = empty cell),
//                  rounded up to the cell alignment, then its d cells
//   [tail pad]     only when a bucket is shorter than the probe's
//                  16-byte fingerprint load (d < 4), see simd_probe.h
//
// The shape is immutable: a structural change — the Table II append, the
// merge-and-double, the reverse shrink — builds a new block and the owner
// swaps its pointer, retiring the old block through the epoch Reclaimer.
// The owner keeps a copy of the shape next to the pointer, so a probe
// addresses every candidate bucket without first waiting for the header
// line. A lock-free reader that holds a validated (pointer, shape) pair
// therefore always probes a self-consistent geometry, and the only torn
// state it can see is cell contents and the denylist count, which are
// bounded by the shape and rejected by its seqlock validation.
//
// Placement keeps the paper's algorithm: `h % num_buckets` bucket choice
// per table from the two shared hash functions, random-walk kick-out
// bounded by T, items treated as interchangeable (a failed Place leaves
// the homeless survivor in *item for the caller to park or re-place).
#ifndef CUCKOOGRAPH_CORE_INTERNAL_CHAIN_BLOCK_H_
#define CUCKOOGRAPH_CORE_INTERNAL_CHAIN_BLOCK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/bob_hash.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/internal/cuckoo_table.h"
#include "core/internal/simd_probe.h"

namespace cuckoograph::internal {

// Upper bound on a chain's table count (Config::max_chain_tables is
// clamped to it), so a probe's candidate buckets fit a stack array.
inline constexpr uint32_t kMaxChainTables = 16;

// The hashes a chain probe needs, computed once per key: every table of
// a chain shares the two hash functions and differs only in its bucket
// count, and the fingerprint is table-independent.
struct KeyHashes {
  uint32_t h1;
  uint32_t h2;
  uint8_t fp;
};

CUCKOOGRAPH_ALWAYS_INLINE KeyHashes HashKey(NodeId key, const BobHash& h1,
                                            const BobHash& h2) {
  return KeyHashes{h1(key), h2(key), KeyFingerprint(key)};
}

// A chain's geometry. The Table II sequence keeps every table after the
// head at max(1, head / 2) buckets — an append adds one of that length, a
// merge builds [2h, h], a shrink builds [h / 2] — so the head's bucket
// count and the table count fix each table's bucket count and offset.
struct ChainShape {
  uint32_t head = 0;
  uint16_t num_tables = 0;
  uint16_t d = 0;  // cells per bucket
  uint32_t deny_capacity = 0;

  uint32_t later_buckets() const { return std::max<uint32_t>(1, head / 2); }
  uint32_t num_buckets(uint32_t t) const {
    return t == 0 ? head : later_buckets();
  }
  uint32_t first_bucket(uint32_t t) const {
    return t == 0 ? 0 : head + (t - 1) * later_buckets();
  }
  uint32_t total_buckets() const { return first_bucket(num_tables); }
};

template <typename Cell>
class ChainBlock {
  static_assert(std::is_trivially_copyable_v<Cell>,
                "chain cells are moved with memcpy");

 public:
  // An empty block of the given shape.
  static ChainBlock* New(const ChainShape& shape) {
    ChainBlock* b = Allocate(shape);
    std::memset(b->table_sizes(), 0, shape.num_tables * sizeof(uint32_t));
    std::memset(Bucket(b, shape, 0), 0,
                size_t{shape.total_buckets()} * Stride(shape.d));
    return b;
  }

  // A copy of `old` with one more, empty table of max(1, head / 2)
  // buckets appended: every existing bucket, the denylist and the sizes
  // are copied byte for byte, so no stored item moves.
  static ChainBlock* Append(const ChainBlock& old) {
    ChainShape shape = old.shape_;
    ++shape.num_tables;
    ChainBlock* b = Allocate(shape);
    std::memcpy(b->table_sizes(), old.table_sizes(),
                old.shape_.num_tables * sizeof(uint32_t));
    b->table_sizes()[old.shape_.num_tables] = 0;
    b->size_ = old.size_;
    const uint32_t deny = old.deny_count();
    std::memcpy(b->deny(), old.deny(), deny * sizeof(Cell));
    b->deny_count_.store(deny, std::memory_order_relaxed);
    const size_t kept = size_t{old.shape_.total_buckets()} * Stride(shape.d);
    std::memcpy(Bucket(b, shape, 0), Bucket(&old, old.shape_, 0), kept);
    std::memset(Bucket(b, shape, old.shape_.total_buckets()), 0,
                size_t{shape.later_buckets()} * Stride(shape.d));
    return b;
  }

  static void Delete(ChainBlock* b) {
    if (b == nullptr) return;
    b->~ChainBlock();
    std::free(b);
  }

  ChainBlock(const ChainBlock&) = delete;
  ChainBlock& operator=(const ChainBlock&) = delete;

  const ChainShape& shape() const { return shape_; }
  // Stored items, denylist included.
  size_t size() const { return size_; }
  size_t num_cells() const {
    return size_t{shape_.total_buckets()} * shape_.d;
  }
  size_t bytes() const { return Bytes(shape_); }
  uint32_t deny_count() const {
    return deny_count_.load(std::memory_order_relaxed);
  }

  // ---- Probe (safe for optimistic readers) ---------------------------------

  // The cell of block `b` (of shape `s`) holding `key`, or nullptr.
  // Computes every candidate bucket of every table from the shape first
  // and prefetches them, so the bucket misses overlap; then compares
  // fingerprints bucket by bucket, head table first, and scans the
  // denylist last. Bounds come only from the shape and the
  // capacity-clamped denylist count, so the probe is crash-safe while a
  // writer tears cell contents (the caller's sequence validation rejects
  // the answer).
  CUCKOOGRAPH_NO_SANITIZE_THREAD
  static const Cell* Find(const ChainBlock* b, const ChainShape& s,
                          NodeId key, const KeyHashes& k) {
    __builtin_prefetch(b);
    const uint8_t* candidates[2 * kMaxChainTables];
    const uint32_t n = Candidates(b, s, k, candidates);
    for (uint32_t i = 0; i < n; ++i) {
      const size_t lane = MatchIn(candidates[i], s.d, k.fp, key);
      if (lane != kNoSlot) return CellsOf(candidates[i], s.d) + lane;
    }
    const uint32_t count = std::min(
        b->deny_count_.load(std::memory_order_acquire), s.deny_capacity);
    const Cell* list = Deny(b, s);
    for (uint32_t i = 0; i < count; ++i) {
      if (list[i].v == key) return &list[i];
    }
    return nullptr;
  }

  static Cell* Find(ChainBlock* b, const ChainShape& s, NodeId key,
                    const KeyHashes& k) {
    return const_cast<Cell*>(
        Find(static_cast<const ChainBlock*>(b), s, key, k));
  }

  // ---- Writer-side operations ----------------------------------------------

  // Places *item (whose hashes are `k`) in table `t`, evicting at most
  // max_kicks victims; *kicks counts evictions. On failure returns false
  // with the homeless survivor in *item.
  bool Place(uint32_t t, Cell* item, KeyHashes k, const BobHash& h1,
             const BobHash& h2, int max_kicks, SplitMix64* rng,
             uint64_t* kicks) {
    const uint32_t d = shape_.d;
    const uint32_t num_buckets = shape_.num_buckets(t);
    uint32_t& table_size = table_sizes()[t];
    if (table_size == num_buckets * d) return false;
    uint8_t* first = Bucket(this, shape_, shape_.first_bucket(t));
    const size_t stride = Stride(d);
    for (int attempt = 0; attempt <= max_kicks; ++attempt) {
      uint8_t* b1 = first + BucketIndex(k.h1, num_buckets) * stride;
      uint8_t* b2 = first + BucketIndex(k.h2, num_buckets) * stride;
      uint8_t* free_bucket = b1;
      uint64_t mask = MatchByteMask(b1, d, 0);
      if (mask == 0 && b2 != b1) {
        free_bucket = b2;
        mask = MatchByteMask(b2, d, 0);
      }
      if (mask != 0) {
        const size_t lane = static_cast<size_t>(__builtin_ctzll(mask));
        CellsOf(free_bucket, d)[lane] = *item;
        free_bucket[lane] = k.fp;
        ++table_size;
        ++size_;
        return true;
      }
      if (attempt == max_kicks) break;
      // Kick a random victim out of one of the two candidate buckets.
      uint8_t* victim = (attempt & 1) != 0 ? b2 : b1;
      const size_t lane = rng->NextBelow64(d);
      std::swap(*item, CellsOf(victim, d)[lane]);
      victim[lane] = k.fp;
      k = HashKey(item->v, h1, h2);
      ++*kicks;
    }
    return false;
  }

  // Appends `cell` to the denylist; false when it is full.
  bool Park(const Cell& cell) {
    const uint32_t count = deny_count();
    if (count == shape_.deny_capacity) return false;
    deny()[count] = cell;
    deny_count_.store(count + 1, std::memory_order_release);
    ++size_;
    return true;
  }

  // Removes `key`; false when absent.
  bool Erase(NodeId key, const KeyHashes& k) {
    const uint8_t* candidates[2 * kMaxChainTables];
    const uint32_t n = Candidates(this, shape_, k, candidates);
    for (uint32_t i = 0; i < n; ++i) {
      const size_t lane = MatchIn(candidates[i], shape_.d, k.fp, key);
      if (lane == kNoSlot) continue;
      const_cast<uint8_t*>(candidates[i])[lane] = 0;
      --table_sizes()[TableOf(candidates[i])];
      --size_;
      return true;
    }
    Cell* list = deny();
    const uint32_t count = deny_count();
    for (uint32_t i = 0; i < count; ++i) {
      if (list[i].v != key) continue;
      list[i] = list[count - 1];
      deny_count_.store(count - 1, std::memory_order_release);
      --size_;
      return true;
    }
    return false;
  }

  // Visits every stored cell: the tables' occupied cells in slot order,
  // head table first, then the denylist.
  template <typename Fn>
  void ForEach(Fn fn) const {
    size_t pos = 0;
    ForEachFrom(&pos, SIZE_MAX, fn);
  }

  // Resumable ForEach for cursors: writes up to `capacity` neighbour ids
  // from flat position *pos on (cells in ForEach order, empty cells
  // included in the count) and advances *pos.
  size_t CopyKeys(size_t* pos, NodeId* out, size_t capacity) const {
    size_t written = 0;
    ForEachFrom(pos, capacity,
                [&](const Cell& cell) { out[written++] = cell.v; });
    return written;
  }

 private:
  ChainBlock() = default;
  ~ChainBlock() = default;

  static constexpr size_t AlignUp(size_t x, size_t a) {
    return (x + a - 1) / a * a;
  }
  // A bucket's fingerprint run, padded so its cells are aligned.
  static constexpr size_t FingerprintBytes(uint32_t d) {
    return AlignUp(d, alignof(Cell));
  }
  static constexpr size_t Stride(uint32_t d) {
    return FingerprintBytes(d) + size_t{d} * sizeof(Cell);
  }
  static constexpr size_t DenyAt(const ChainShape& s) {
    return AlignUp(sizeof(ChainBlock) + s.num_tables * sizeof(uint32_t),
                   alignof(Cell));
  }
  static constexpr size_t BucketsAt(const ChainShape& s) {
    return DenyAt(s) + size_t{s.deny_capacity} * sizeof(Cell);
  }
  // The probe loads fingerprints 16 bytes at a time; a bucket shorter
  // than that load (only d < 4) gets readable slack past the last one.
  static constexpr size_t TailBytes(uint32_t d) {
    const size_t probe_bytes = AlignUp(d, kBytePadding);
    return probe_bytes > Stride(d) ? probe_bytes - Stride(d) : 0;
  }
  static size_t Bytes(const ChainShape& s) {
    return BucketsAt(s) + size_t{s.total_buckets()} * Stride(s.d) +
           TailBytes(s.d);
  }

  static ChainBlock* Allocate(const ChainShape& shape) {
    const size_t bytes = Bytes(shape);
    void* raw = std::malloc(bytes);
    if (raw == nullptr) throw std::bad_alloc();
    auto* b = new (raw) ChainBlock();
    b->shape_ = shape;
    const size_t tail = TailBytes(shape.d);
    std::memset(static_cast<uint8_t*>(raw) + bytes - tail, 0, tail);
    return b;
  }

  static const uint8_t* Bucket(const ChainBlock* b, const ChainShape& s,
                               uint32_t index) {
    return reinterpret_cast<const uint8_t*>(b) + BucketsAt(s) +
           size_t{index} * Stride(s.d);
  }
  static uint8_t* Bucket(ChainBlock* b, const ChainShape& s,
                         uint32_t index) {
    return const_cast<uint8_t*>(
        Bucket(static_cast<const ChainBlock*>(b), s, index));
  }
  static const Cell* Deny(const ChainBlock* b, const ChainShape& s) {
    return reinterpret_cast<const Cell*>(
        reinterpret_cast<const uint8_t*>(b) + DenyAt(s));
  }
  static const Cell* CellsOf(const uint8_t* bucket, uint32_t d) {
    return reinterpret_cast<const Cell*>(bucket + FingerprintBytes(d));
  }
  static Cell* CellsOf(uint8_t* bucket, uint32_t d) {
    return reinterpret_cast<Cell*>(bucket + FingerprintBytes(d));
  }

  // Fills `out` with every table's candidate buckets (b2 skipped when it
  // equals b1), prefetching each; returns how many.
  CUCKOOGRAPH_NO_SANITIZE_THREAD
  static uint32_t Candidates(const ChainBlock* b, const ChainShape& s,
                             const KeyHashes& k, const uint8_t** out) {
    const uint8_t* first = Bucket(b, s, 0);
    const size_t stride = Stride(s.d);
    uint32_t n = 0;
    for (uint32_t t = 0; t < s.num_tables; ++t) {
      const uint32_t num_buckets = s.num_buckets(t);
      const uint8_t* table = first + size_t{s.first_bucket(t)} * stride;
      const uint8_t* b1 = table + BucketIndex(k.h1, num_buckets) * stride;
      const uint8_t* b2 = table + BucketIndex(k.h2, num_buckets) * stride;
      Prefetch(b1, stride);
      out[n++] = b1;
      if (b2 != b1) {
        Prefetch(b2, stride);
        out[n++] = b2;
      }
    }
    return n;
  }

  // Both lines of a bucket that straddles a cache-line boundary.
  CUCKOOGRAPH_ALWAYS_INLINE static void Prefetch(const uint8_t* bucket,
                                                 size_t stride) {
    __builtin_prefetch(bucket);
    __builtin_prefetch(bucket + stride - 1);
  }

  // Lane of `key` in `bucket`, or kNoSlot.
  CUCKOOGRAPH_NO_SANITIZE_THREAD
  static size_t MatchIn(const uint8_t* bucket, uint32_t d, uint8_t fp,
                        NodeId key) {
    uint64_t mask = MatchByteMask(bucket, d, fp);
    const Cell* cells = CellsOf(bucket, d);
    while (mask != 0) {
      const size_t lane = static_cast<size_t>(__builtin_ctzll(mask));
      if (cells[lane].v == key) return lane;
      mask &= mask - 1;
    }
    return kNoSlot;
  }

  // The table holding `bucket`.
  uint32_t TableOf(const uint8_t* bucket) const {
    const auto index = static_cast<uint32_t>(
        (bucket - Bucket(this, shape_, 0)) / Stride(shape_.d));
    if (index < shape_.head) return 0;
    return 1 + (index - shape_.head) / shape_.later_buckets();
  }

  // Calls fn on at most `limit` stored cells from flat position *pos on
  // (bucket cells in order, then the denylist) and advances *pos past
  // the last cell visited.
  template <typename Fn>
  void ForEachFrom(size_t* pos, size_t limit, Fn fn) const {
    const uint32_t d = shape_.d;
    const size_t cells = num_cells();
    size_t p = *pos;
    while (limit > 0 && p < cells) {
      const uint8_t* bucket =
          Bucket(this, shape_, static_cast<uint32_t>(p / d));
      const Cell* slots = CellsOf(bucket, d);
      for (size_t lane = p % d; lane < d && limit > 0; ++lane, ++p) {
        if (bucket[lane] == 0) continue;
        fn(slots[lane]);
        --limit;
      }
    }
    const Cell* list = deny();
    const size_t end = cells + deny_count();
    for (; limit > 0 && p < end; ++p, --limit) fn(list[p - cells]);
    *pos = p;
  }

  uint32_t* table_sizes() { return reinterpret_cast<uint32_t*>(this + 1); }
  const uint32_t* table_sizes() const {
    return reinterpret_cast<const uint32_t*>(this + 1);
  }
  Cell* deny() { return const_cast<Cell*>(Deny(this, shape_)); }
  const Cell* deny() const { return Deny(this, shape_); }

  // Immutable after Allocate.
  ChainShape shape_;
  // Mutable by the writer; readers bound their denylist scan by the
  // published count, clamped to the shape's capacity. Each table's size
  // follows the header as uint32_t[num_tables] (writer-only).
  uint32_t size_ = 0;
  std::atomic<uint32_t> deny_count_{0};
};

}  // namespace cuckoograph::internal

#endif  // CUCKOOGRAPH_CORE_INTERNAL_CHAIN_BLOCK_H_
