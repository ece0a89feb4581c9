// Epoch-based reclamation for the optimistic (seqlock-validated) read
// path of the sharded store. An optimistic reader probes a shard's
// structures without holding the stripe lock, so a concurrent writer
// must never free memory the reader could still be dereferencing —
// instead, writers *retire* replaced cuckoo blocks (the L-CHT's, and
// S-CHT chains') into a limbo list, and the limbo list frees an entry
// only once every reader that could have seen it has exited.
//
// The protocol:
//  - A reader claims a slot in the EpochManager before its first probe,
//    publishing the global epoch it observed (EpochGuard). While the
//    slot is held, nothing retired at or after that epoch is freed.
//  - A writer retires an allocation by advancing the global epoch and
//    tagging the entry with the pre-advance value (LimboList::Push).
//  - Draining frees every entry whose retire epoch is older than the
//    oldest epoch any reader currently pins (LimboList::DrainUpTo with
//    EpochManager::MinPinned) — readers that pinned later can only have
//    reached the entry's *replacement*, because the writer unlinks an
//    allocation from the live structure before retiring it.
//
// Slots are claimed dynamically (no thread registration): TryPin scans a
// fixed slot array with a per-thread starting hint and CASes a free
// slot. When every slot is busy it fails, and the caller simply takes
// its locked fallback path — reclamation never blocks and never waits.
#ifndef CUCKOOGRAPH_CORE_INTERNAL_EPOCH_H_
#define CUCKOOGRAPH_CORE_INTERNAL_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace cuckoograph::internal {

// Deferred-deletion sink handed to structures whose mutations replace
// reader-visible allocations. The default (a null Reclaimer*) at the
// call sites means "free immediately" — correct whenever no lock-free
// reader exists (the single-threaded CuckooGraph on its own).
class Reclaimer {
 public:
  virtual ~Reclaimer() = default;

  // Defers std::free(block) until no optimistic reader that was active
  // at the time of the call can still hold a reference into it. `block`
  // is malloc'd memory needing no destructor (a cuckoo block).
  virtual void Retire(void* block) = 0;
};

// Validation token for one seqlock-protected optimistic probe. The owner
// of the sequence word (the shard) snapshots an even value into
// `observed` before probing; Valid() re-reads the word and succeeds only
// if no writer has started since — at which point everything copied out
// of the shard so far is the committed state as of the snapshot. The
// probe passes this down so it can validate *before* dereferencing any
// pointer it copied (a torn or mid-write pointer must never be chased).
struct SeqValidator {
  const std::atomic<uint64_t>* seq;
  uint64_t observed;

  bool Valid() const {
    // The fence orders every preceding (possibly non-atomic) probe read
    // before the re-read of the sequence word; pairs with the release
    // semantics of the writer's begin/end bumps.
    std::atomic_thread_fence(std::memory_order_acquire);
    return seq->load(std::memory_order_relaxed) == observed;
  }
};

class EpochManager {
 public:
  // Concurrent pinned readers supported; excess readers fall back to
  // their locked path (TryPin fails), so this bounds optimism, not
  // correctness.
  static constexpr size_t kSlots = 64;
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // Reader side: claim a free slot, publishing the current global epoch
  // in it. The seq_cst pin orders the slot publication before any of
  // the reader's subsequent probes, so a writer that scans the slots
  // after the pin is visible cannot free what the reader may reach.
  // Returns kNoSlot when every slot is busy.
  size_t TryPin() {
    const uint64_t epoch = global_.load(std::memory_order_seq_cst);
    const size_t start = PreferredSlot() % kSlots;
    for (size_t i = 0; i < kSlots; ++i) {
      const size_t at = (start + i) % kSlots;
      uint64_t expected = 0;
      if (slots_[at].epoch.compare_exchange_strong(
              expected, epoch, std::memory_order_seq_cst)) {
        PreferredSlot() = at;
        return at;
      }
    }
    return kNoSlot;
  }

  void Unpin(size_t slot) {
    slots_[slot].epoch.store(0, std::memory_order_release);
  }

  // Writer side: advance the global epoch, returning the pre-advance
  // value (the retire tag for allocations unlinked before this call).
  uint64_t Advance() {
    return global_.fetch_add(1, std::memory_order_seq_cst);
  }

  // Oldest epoch any reader currently pins (UINT64_MAX when none do).
  // An entry retired at epoch e may be freed once MinPinned() > e.
  uint64_t MinPinned() const {
    uint64_t min = UINT64_MAX;
    for (const Slot& slot : slots_) {
      const uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      if (e != 0 && e < min) min = e;
    }
    return min;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{0};  // 0 = free
  };

  // Per-thread scan hint only — correctness never depends on it, so one
  // process-wide hint shared across EpochManager instances is fine.
  static size_t& PreferredSlot() {
    thread_local size_t hint = 0;
    return hint;
  }

  std::atomic<uint64_t> global_{1};  // 0 is reserved for "slot free"
  Slot slots_[kSlots];
};

// RAII slot pin around one optimistic read attempt (or a batch of them).
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager* manager)
      : manager_(manager), slot_(manager->TryPin()) {}
  ~EpochGuard() {
    if (pinned()) manager_->Unpin(slot_);
  }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

  // False when every slot was busy: the caller must not probe
  // optimistically and should take its locked path instead.
  bool pinned() const { return slot_ != EpochManager::kNoSlot; }

 private:
  EpochManager* const manager_;
  const size_t slot_;
};

// Retired allocations awaiting a safe epoch. Not thread-safe on its own:
// the owner guards it with the same lock its writers hold (the sharded
// store annotates it GUARDED_BY the stripe lock).
class LimboList {
 public:
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Registers malloc'd `block`, retired at `retire_epoch`.
  void Push(uint64_t retire_epoch, void* block) {
    entries_.push_back(Entry{retire_epoch, block});
  }

  // Frees every entry retired strictly before `min_pinned_epoch` (pass
  // EpochManager::MinPinned(); UINT64_MAX frees everything).
  void DrainUpTo(uint64_t min_pinned_epoch) {
    size_t kept = 0;
    for (const Entry& entry : entries_) {
      if (entry.retire_epoch < min_pinned_epoch) {
        std::free(entry.block);
      } else {
        entries_[kept++] = entry;
      }
    }
    entries_.resize(kept);
  }

  // Frees everything unconditionally — destructor path only, when the
  // owner knows no reader remains.
  void DrainAll() { DrainUpTo(UINT64_MAX); }

 private:
  struct Entry {
    uint64_t retire_epoch;
    void* block;
  };
  std::vector<Entry> entries_;
};

}  // namespace cuckoograph::internal

#endif  // CUCKOOGRAPH_CORE_INTERNAL_EPOCH_H_
