// One fixed-geometry cuckoo hash table: `num_buckets` buckets of
// `cells_per_bucket` cells, two hash choices per key, random-walk kick-out
// insertion. The top-level L-CHT is one (items are vertex entries); the
// per-vertex S-CHT chains use the same algorithm over their own one-block
// layout (chain_block.h), and share KeyFingerprint and BucketIndex below.
//
// Items must expose `NodeId CuckooKey() const`. Duplicate detection is the
// caller's job (FindSlot before Place); the table itself treats items as
// interchangeable, which keeps kick-out eviction simple: a failed Place
// leaves the last evicted survivor in *item, and since all items are
// equally placeable the caller may park or re-place whichever survivor it
// is handed.
//
// Probing is batched: alongside the cells the table keeps one fingerprint
// byte per cell (0 = empty, a nonzero key-derived byte otherwise), and
// FindSlot / free-cell scans compare a whole bucket's fingerprints per
// probe through simd_probe.h. Only cells whose fingerprint matches are
// verified against the full key, so a probe costs one vector compare plus
// (almost always) at most one key comparison. Both candidate buckets'
// fingerprint runs are fetched together.
//
// Storage layout for optimistic readers: the cells and fingerprints live
// behind a single heap-allocated, self-describing Block whose geometry is
// immutable after construction — only cell *contents* mutate in place.
// A table's Block pointer changes solely when a rebuild swaps in a fresh
// table (AdoptFrom), so a lock-free reader that acquires the pointer once
// (reader_block) always sees a (geometry, arrays) pair that is consistent
// by construction, and the replaced Block is handed to an epoch Reclaimer
// instead of being freed under the reader (see internal/epoch.h). Torn
// cell contents are the seqlock's problem: the reader validates its shard
// sequence before trusting anything it copied out of a Block.
#ifndef CUCKOOGRAPH_CORE_INTERNAL_CUCKOO_TABLE_H_
#define CUCKOOGRAPH_CORE_INTERNAL_CUCKOO_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bob_hash.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/internal/epoch.h"
#include "core/internal/simd_probe.h"

namespace cuckoograph::internal {

inline constexpr size_t kNoSlot = static_cast<size_t>(-1);

// Key -> nonzero fingerprint byte, from a fixed mixer so the same key maps
// to the same fingerprint in every table (the hashes vary per table pair,
// the fingerprint does not).
CUCKOOGRAPH_ALWAYS_INLINE uint8_t KeyFingerprint(NodeId key) {
  uint32_t x = static_cast<uint32_t>(key) * 0x9E3779B1u;
  x ^= x >> 15;
  const uint8_t f = static_cast<uint8_t>(x >> 24);
  return f == 0 ? 1 : f;
}

// Bucket `h % num_buckets`. The default geometries (Table II's halving and
// doubling, the L-CHT's doubling) keep bucket counts at powers of two,
// which take a mask; any other count takes a 32-bit divide, since the
// hash is 32 bits wide.
CUCKOOGRAPH_ALWAYS_INLINE size_t BucketIndex(uint32_t h, size_t num_buckets) {
  if ((num_buckets & (num_buckets - 1)) == 0) return h & (num_buckets - 1);
  if (num_buckets > UINT32_MAX) return h;
  return h % static_cast<uint32_t>(num_buckets);
}

template <typename Item>
class CuckooTable {
 public:
  // Self-describing storage: geometry plus both arrays behind one
  // pointer. Immutable after construction except for cell contents.
  struct Block {
    Block(size_t buckets, size_t cpb)
        : num_buckets(buckets),
          cells_per_bucket(cpb),
          cells(buckets * cpb),
          fps(buckets * cpb + kBytePadding, 0) {}
    const size_t num_buckets;
    const size_t cells_per_bucket;
    std::vector<Item> cells;
    // One fingerprint byte per cell (0 = empty), padded by kBytePadding
    // so the vector probe may overread past the last bucket.
    std::vector<uint8_t> fps;
    size_t num_cells() const { return cells.size(); }
  };

  CuckooTable(size_t num_buckets, int cells_per_bucket)
      : block_(new Block(num_buckets,
                         static_cast<size_t>(cells_per_bucket))) {}

  ~CuckooTable() { delete block_.load(std::memory_order_relaxed); }

  CuckooTable(const CuckooTable&) = delete;
  CuckooTable& operator=(const CuckooTable&) = delete;

  size_t num_buckets() const { return b()->num_buckets; }
  size_t num_cells() const { return b()->num_cells(); }
  size_t size() const { return size_; }
  bool full() const { return size_ == b()->num_cells(); }

  Item& cell(size_t slot) { return b()->cells[slot]; }
  const Item& cell(size_t slot) const { return b()->cells[slot]; }
  bool used(size_t slot) const { return b()->fps[slot] != 0; }

  // ---- Optimistic-reader hooks ---------------------------------------------

  // Acquire-pins the current storage block: pairs with the release in
  // AdoptFrom, so a reader that sees a fresh block also sees its fully
  // constructed contents. Null only after the storage was handed to a
  // rebuild (readers null-check and bail to their fallback).
  const Block* reader_block() const {
    return block_.load(std::memory_order_acquire);
  }

  // FindSlot against one pinned block. Static so an optimistic reader
  // re-reads nothing through the table object mid-probe; bounds come
  // from the block itself, so the probe is crash-safe even while cell
  // contents are being torn by a concurrent writer (the caller's
  // sequence validation rejects any value read under such a race).
  CUCKOOGRAPH_NO_SANITIZE_THREAD
  static size_t FindSlotIn(const Block& block, NodeId key,
                           const BobHash& h1, const BobHash& h2) {
    const uint8_t fp = KeyFingerprint(key);
    const size_t b1 = BucketIn(block, h1, key);
    const size_t b2 = BucketIn(block, h2, key);
    // Both fingerprint runs load together, so a key in its second bucket
    // costs no extra serial miss.
    __builtin_prefetch(block.fps.data() + b2);
    size_t slot = MatchInBucket(block, b1, fp, key);
    if (slot != kNoSlot || b2 == b1) return slot;
    return MatchInBucket(block, b2, fp, key);
  }

  // Swaps in `fresh`'s storage (rebuild commit), retiring the old block
  // through `reclaimer` — or deleting it immediately when no optimistic
  // reader can exist (reclaimer == nullptr).
  void AdoptFrom(CuckooTable&& fresh, Reclaimer* reclaimer) {
    Block* old = block_.load(std::memory_order_relaxed);
    block_.store(
        fresh.block_.exchange(nullptr, std::memory_order_relaxed),
        std::memory_order_release);
    size_ = fresh.size_;
    fresh.size_ = 0;
    Dispose(old, reclaimer);
  }

  // ---- Writer-side operations ----------------------------------------------

  // Returns the slot holding `key`, or kNoSlot.
  size_t FindSlot(NodeId key, const BobHash& h1, const BobHash& h2) const {
    return FindSlotIn(*b(), key, h1, h2);
  }

  // Places *item, evicting at most max_kicks victims. On success returns
  // true. On failure returns false with the homeless survivor in *item
  // (see the header comment). *kicks is incremented per eviction.
  bool Place(Item* item, const BobHash& h1, const BobHash& h2, int max_kicks,
             SplitMix64* rng, uint64_t* kicks) {
    Block& block = *b();
    if (full()) return false;
    for (int attempt = 0; attempt <= max_kicks; ++attempt) {
      const NodeId key = item->CuckooKey();
      const size_t b1 = BucketIn(block, h1, key);
      const size_t b2 = BucketIn(block, h2, key);
      const size_t free_slot = FreeCellIn(block, b1, b2);
      if (free_slot != kNoSlot) {
        block.cells[free_slot] = *item;
        block.fps[free_slot] = KeyFingerprint(key);
        ++size_;
        return true;
      }
      if (attempt == max_kicks) break;
      // Kick a random victim out of one of the two candidate buckets.
      const size_t victim_bucket = (attempt & 1) != 0 ? b2 : b1;
      const size_t slot =
          victim_bucket + rng->NextBelow64(block.cells_per_bucket);
      std::swap(*item, block.cells[slot]);
      block.fps[slot] = KeyFingerprint(block.cells[slot].CuckooKey());
      ++*kicks;
    }
    return false;
  }

  void Erase(size_t slot) {
    b()->fps[slot] = 0;
    --size_;
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    const Block& block = *b();
    for (size_t s = 0; s < block.cells.size(); ++s) {
      if (block.fps[s] != 0) fn(block.cells[s]);
    }
  }

  size_t MemoryBytes() const {
    const Block& block = *b();
    return sizeof(Block) + block.cells.capacity() * sizeof(Item) +
           block.fps.capacity() * sizeof(uint8_t);
  }

 private:
  CUCKOOGRAPH_ALWAYS_INLINE static size_t BucketIn(const Block& block,
                                                   const BobHash& h,
                                                   NodeId key) {
    return BucketIndex(h(key), block.num_buckets) * block.cells_per_bucket;
  }

  // Fingerprint-probes bucket `b`, verifying candidates against the key.
  CUCKOOGRAPH_NO_SANITIZE_THREAD
  static size_t MatchInBucket(const Block& block, size_t b, uint8_t fp,
                              NodeId key) {
    uint64_t mask =
        MatchByteMask(block.fps.data() + b, block.cells_per_bucket, fp);
    while (mask != 0) {
      const size_t s = b + static_cast<size_t>(__builtin_ctzll(mask));
      if (block.cells[s].CuckooKey() == key) return s;
      mask &= mask - 1;
    }
    return kNoSlot;
  }

  static size_t FreeCellIn(const Block& block, size_t b1, size_t b2) {
    uint64_t mask =
        MatchByteMask(block.fps.data() + b1, block.cells_per_bucket, 0);
    if (mask != 0) return b1 + static_cast<size_t>(__builtin_ctzll(mask));
    if (b2 != b1) {
      mask = MatchByteMask(block.fps.data() + b2, block.cells_per_bucket,
                           0);
      if (mask != 0) return b2 + static_cast<size_t>(__builtin_ctzll(mask));
    }
    return kNoSlot;
  }

  static void Dispose(Block* old, Reclaimer* reclaimer) {
    if (old == nullptr) return;
    if (reclaimer != nullptr) {
      reclaimer->Retire([old] { delete old; });
    } else {
      delete old;
    }
  }

  // Writer-side view of the storage pointer. Writers are serialized by
  // the owner's lock, so relaxed is enough; the release that publishes
  // a fresh block to readers lives in AdoptFrom.
  Block* b() const { return block_.load(std::memory_order_relaxed); }

  std::atomic<Block*> block_;
  size_t size_ = 0;
};

}  // namespace cuckoograph::internal

#endif  // CUCKOOGRAPH_CORE_INTERNAL_CUCKOO_TABLE_H_
