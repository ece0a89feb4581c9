#include "core/cuckoo_graph.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/crash_point.h"
#include "common/thread_annotations.h"

namespace cuckoograph {

static_assert(CuckooGraph::kInlineSlots <=
                  static_cast<int>(internal::kKeyLanes),
              "inline slots must fit the SIMD key-probe lane count");

namespace {

Config Normalize(Config config) {
  config.l_initial_buckets = std::max<size_t>(1, config.l_initial_buckets);
  config.s_initial_buckets = std::max<size_t>(1, config.s_initial_buckets);
  // One probe mask covers a whole bucket, so d is capped at the mask width.
  config.cells_per_bucket =
      std::min<int>(internal::kMaxProbeWidth,
                    std::max(1, config.cells_per_bucket));
  config.max_kicks = std::max(1, config.max_kicks);
  config.max_chain_tables =
      std::min<int>(internal::kMaxChainTables,
                    std::max(1, config.max_chain_tables));
  config.denylist_limit = std::max(0, config.denylist_limit);
  config.expand_threshold =
      std::min(0.95, std::max(0.1, config.expand_threshold));
  return config;
}

}  // namespace

template <typename Cell>
BasicCuckooGraph<Cell>::BasicCuckooGraph(const Config& config)
    : config_(Normalize(config)),
      h1_(0x7feb352d),
      h2_(0x846ca68b),
      rng_(0x2545f4914f6cdd1dULL),
      l_(config_.l_initial_buckets, config_.cells_per_bucket) {
  static_assert(kWeighted || sizeof(void*) != 8 || sizeof(VertexEntry) == 48,
                "the unweighted L-CHT cell stays at 48 bytes");
  l_denylist_.reserve(static_cast<size_t>(config_.denylist_limit));
}

template <typename Cell>
BasicCuckooGraph<Cell>::~BasicCuckooGraph() {
  l_.ForEach([](const VertexEntry& e) {
    if (e.has_chain) Chain::Delete(e.chain.block);
  });
  for (const VertexEntry& e : l_denylist_) {
    if (e.has_chain) Chain::Delete(e.chain.block);
  }
}

// ---- Public interface ------------------------------------------------------

template <typename Cell>
bool BasicCuckooGraph<Cell>::InsertEdge(NodeId u, NodeId v) {
  return Upsert(u, Cell{v}, nullptr);
}

template <typename Cell>
bool BasicCuckooGraph<Cell>::QueryEdge(NodeId u, NodeId v) const {
  const VertexEntry* e = FindVertex(u);
  return e != nullptr && Contains(*e, v);
}

template <typename Cell>
bool BasicCuckooGraph<Cell>::DeleteEdge(NodeId u, NodeId v) {
  VertexEntry* e = FindVertex(u);
  if (e == nullptr) return false;
  if (!e->has_chain) {
    const uint32_t mask =
        internal::MatchKeyMask(e->inline_.v, e->degree, v);
    if (mask == 0) return false;
    const uint32_t i = static_cast<uint32_t>(__builtin_ctz(mask));
    SetInlineCell(e, i, InlineCell(*e, e->degree - 1));
    --e->degree;
  } else {
    if (!e->chain.block->Erase(v, Hash(v))) return false;
    --e->degree;
  }
  --num_edges_;
  if (e->degree == 0) {
    RemoveVertex(u);
    if (config_.enable_reverse_transform) MaybeShrinkL();
    return true;
  }
  if (e->has_chain && config_.enable_reverse_transform) {
    MaybeReverseTransform(e);
  }
  return true;
}

// Streams one vertex's adjacency: the inline slots, or the chain's cells
// (occupied cells, head table first) followed by the chain's denylist.
template <typename Cell>
class BasicCuckooGraph<Cell>::NeighborCursorImpl final
    : public NeighborCursor {
 public:
  explicit NeighborCursorImpl(const VertexEntry* e) : e_(e) {}

  size_t Next(NodeId* out, size_t capacity) override {
    if (e_->has_chain) {
      return e_->chain.block->CopyKeys(&pos_, out, capacity);
    }
    size_t written = 0;
    while (written < capacity && pos_ < e_->degree) {
      out[written++] = e_->inline_.v[pos_++];
    }
    return written;
  }

 private:
  const VertexEntry* e_;
  size_t pos_ = 0;
};

// Streams every vertex key: the L-CHT's occupied cells, then the L-CHT
// denylist.
template <typename Cell>
class BasicCuckooGraph<Cell>::NodeCursorImpl final : public NeighborCursor {
 public:
  explicit NodeCursorImpl(const BasicCuckooGraph* g) : g_(g) {}

  size_t Next(NodeId* out, size_t capacity) override {
    size_t written = 0;
    const auto& l = g_->l_;
    while (written < capacity && slot_ < l.num_cells()) {
      if (l.used(slot_)) out[written++] = l.cell(slot_).key;
      ++slot_;
    }
    while (written < capacity && deny_i_ < g_->l_denylist_.size()) {
      out[written++] = g_->l_denylist_[deny_i_++].key;
    }
    return written;
  }

 private:
  const BasicCuckooGraph* g_;
  size_t slot_ = 0;
  size_t deny_i_ = 0;
};

template <typename Cell>
std::unique_ptr<NeighborCursor> BasicCuckooGraph<Cell>::Neighbors(
    NodeId u) const {
  const VertexEntry* e = FindVertex(u);
  if (e == nullptr) return std::make_unique<EmptyNeighborCursor>();
  return std::make_unique<NeighborCursorImpl>(e);
}

template <typename Cell>
std::unique_ptr<NeighborCursor> BasicCuckooGraph<Cell>::Nodes() const {
  return std::make_unique<NodeCursorImpl>(this);
}

template <typename Cell>
size_t BasicCuckooGraph<Cell>::NumNodes() const {
  return l_.size() + l_denylist_.size();
}

template <typename Cell>
size_t BasicCuckooGraph<Cell>::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += l_.MemoryBytes();
  bytes += l_denylist_.capacity() * sizeof(VertexEntry);
  const auto add_chain = [&bytes](const VertexEntry& e) {
    if (e.has_chain) bytes += e.chain.block->bytes();
  };
  l_.ForEach(add_chain);
  for (const VertexEntry& e : l_denylist_) add_chain(e);
  return bytes;
}

template <typename Cell>
GraphStats BasicCuckooGraph<Cell>::stats() const {
  GraphStats st;
  st.l = l_stats_;
  st.s = s_stats_;
  st.num_chains = num_chains_;
  st.transformations = transformations_;
  st.reverse_transformations = reverse_transformations_;
  st.denylist_parks = denylist_parks_;
  return st;
}

template <typename Cell>
size_t BasicCuckooGraph<Cell>::OutDegree(NodeId u) const {
  const VertexEntry* e = FindVertex(u);
  return e == nullptr ? 0 : e->degree;
}

template <typename Cell>
std::vector<size_t> BasicCuckooGraph<Cell>::SChainLengths(NodeId u) const {
  std::vector<size_t> lengths;
  const VertexEntry* e = FindVertex(u);
  if (e == nullptr || !e->has_chain) return lengths;
  const internal::ChainShape& shape = e->chain.shape;
  for (uint32_t t = 0; t < shape.num_tables; ++t) {
    lengths.push_back(shape.num_buckets(t));
  }
  return lengths;
}

template <typename Cell>
uint64_t BasicCuckooGraph<Cell>::AddEdgeWeight(NodeId u, NodeId v,
                                               uint32_t delta) {
  Cell cell{v};
  if constexpr (kWeighted) cell.weight = delta;
  uint64_t weight = 1;
  Upsert(u, cell, &weight);
  return weight;
}

template <typename Cell>
uint64_t BasicCuckooGraph<Cell>::GetEdgeWeight(NodeId u, NodeId v) const {
  const VertexEntry* e = FindVertex(u);
  if (e == nullptr) return 0;
  if constexpr (kWeighted) {
    const uint32_t* w = FindWeight(*e, v);
    return w == nullptr ? 0 : *w;
  } else {
    return Contains(*e, v) ? 1 : 0;
  }
}

// ---- Vertex lookup and the L-CHT -------------------------------------------

template <typename Cell>
typename BasicCuckooGraph<Cell>::VertexEntry*
BasicCuckooGraph<Cell>::FindVertex(NodeId u) {
  const size_t slot = l_.FindSlot(u, h1_, h2_);
  if (slot != internal::kNoSlot) return &l_.cell(slot);
  for (VertexEntry& e : l_denylist_) {
    if (e.key == u) return &e;
  }
  return nullptr;
}

template <typename Cell>
const typename BasicCuckooGraph<Cell>::VertexEntry*
BasicCuckooGraph<Cell>::FindVertex(NodeId u) const {
  return const_cast<BasicCuckooGraph*>(this)->FindVertex(u);
}

template <typename Cell>
Cell BasicCuckooGraph<Cell>::InlineCell(const VertexEntry& e, uint32_t i) {
  Cell cell{e.inline_.v[i]};
  if constexpr (kWeighted) cell.weight = e.inline_.w[i];
  return cell;
}

template <typename Cell>
void BasicCuckooGraph<Cell>::SetInlineCell(VertexEntry* e, uint32_t i,
                                           const Cell& cell) {
  e->inline_.v[i] = cell.v;
  if constexpr (kWeighted) e->inline_.w[i] = cell.weight;
}

template <typename Cell>
bool BasicCuckooGraph<Cell>::Contains(const VertexEntry& e,
                                      NodeId v) const {
  if (!e.has_chain) {
    return internal::MatchKeyMask(e.inline_.v, e.degree, v) != 0;
  }
  return Chain::Find(e.chain.block, e.chain.shape, v, Hash(v)) != nullptr;
}

template <typename Cell>
uint32_t* BasicCuckooGraph<Cell>::FindWeight(const VertexEntry& e,
                                             NodeId v) const {
  if constexpr (kWeighted) {
    if (!e.has_chain) {
      const uint32_t mask = internal::MatchKeyMask(e.inline_.v, e.degree, v);
      if (mask == 0) return nullptr;
      return const_cast<uint32_t*>(&e.inline_.w[__builtin_ctz(mask)]);
    }
    Cell* cell = Chain::Find(e.chain.block, e.chain.shape, v, Hash(v));
    return cell == nullptr ? nullptr : &cell->weight;
  } else {
    (void)e;
    (void)v;
    return nullptr;
  }
}

template <typename Cell>
bool BasicCuckooGraph<Cell>::Upsert(NodeId u, const Cell& cell,
                                    uint64_t* weight) {
  VertexEntry* e = FindVertex(u);
  if (e != nullptr) {
    if (!e->has_chain) {
      const uint32_t mask =
          internal::MatchKeyMask(e->inline_.v, e->degree, cell.v);
      if (mask != 0) {
        if constexpr (kWeighted) {
          uint32_t& w = e->inline_.w[__builtin_ctz(mask)];
          w += cell.weight;
          if (weight != nullptr) *weight = w;
        }
        return false;
      }
      AppendNeighbor(e, cell);
    } else {
      // One hash computation serves the presence probe and the placement.
      const internal::KeyHashes k = Hash(cell.v);
      Cell* found = Chain::Find(e->chain.block, e->chain.shape, cell.v, k);
      if (found != nullptr) {
        if constexpr (kWeighted) {
          found->weight += cell.weight;
          if (weight != nullptr) *weight = found->weight;
        }
        return false;
      }
      ChainInsert(e, cell, k);
    }
    ++e->degree;
    ++num_edges_;
    if constexpr (kWeighted) {
      if (weight != nullptr) *weight = cell.weight;
    }
    return true;
  }
  VertexEntry entry;
  entry.key = u;
  entry.degree = 1;
  if (config_.enable_inline_slots) {
    SetInlineCell(&entry, 0, cell);
  } else {
    AttachChain(&entry, NewChain());
    ChainInsert(&entry, cell, Hash(cell.v));
  }
  ++num_edges_;
  PlaceVertex(entry);
  if (static_cast<double>(l_.size() + l_denylist_.size()) >
      config_.expand_threshold * static_cast<double>(l_.num_cells())) {
    ++l_stats_.expansions;
    RebuildL(l_.num_buckets() * 2);
  }
  if constexpr (kWeighted) {
    if (weight != nullptr) *weight = cell.weight;
  }
  return true;
}

template <typename Cell>
void BasicCuckooGraph<Cell>::AppendNeighbor(VertexEntry* e,
                                            const Cell& cell) {
  if (e->degree < static_cast<uint32_t>(kInlineSlots)) {
    SetInlineCell(e, e->degree, cell);
    return;
  }
  TransformToChain(e);
  ChainInsert(e, cell, Hash(cell.v));
}

template <typename Cell>
void BasicCuckooGraph<Cell>::PlaceVertex(VertexEntry entry) {
  ++l_stats_.insert_attempts;
  while (true) {
    if (l_.Place(&entry, h1_, h2_, config_.max_kicks, &rng_,
                 &l_stats_.kicks)) {
      return;
    }
    if (config_.enable_deny_list &&
        l_denylist_.size() < static_cast<size_t>(config_.denylist_limit)) {
      l_denylist_.push_back(entry);
      reader_l_deny_count_.store(
          static_cast<uint32_t>(l_denylist_.size()),
          std::memory_order_release);
      ++denylist_parks_;
      return;
    }
    ++l_stats_.expansions;
    RebuildL(l_.num_buckets() * 2);
  }
}

template <typename Cell>
void BasicCuckooGraph<Cell>::RebuildL(size_t new_buckets) {
  new_buckets = std::max(new_buckets, config_.l_initial_buckets);
  std::vector<VertexEntry> items;
  items.reserve(l_.size() + l_denylist_.size());
  l_.ForEach([&items](const VertexEntry& e) { items.push_back(e); });
  for (const VertexEntry& e : l_denylist_) items.push_back(e);
  while (true) {
    internal::CuckooTable<VertexEntry> fresh(new_buckets,
                                             config_.cells_per_bucket);
    std::vector<VertexEntry> deny;
    bool ok = true;
    for (const VertexEntry& orig : items) {
      VertexEntry moved = orig;
      if (fresh.Place(&moved, h1_, h2_, config_.max_kicks, &rng_,
                      &l_stats_.kicks)) {
        continue;
      }
      if (config_.enable_deny_list &&
          deny.size() < static_cast<size_t>(config_.denylist_limit)) {
        deny.push_back(moved);
      } else {
        ok = false;
        break;
      }
    }
    if (ok) {
      // Commit: swap the bucket block in (retiring the old one for any
      // in-flight optimistic reader) and refresh the denylist in place —
      // assign() stays within the reserved capacity, so data() never
      // moves under a reader.
      l_.AdoptFrom(std::move(fresh), reclaimer_);
      l_denylist_.assign(deny.begin(), deny.end());
      reader_l_deny_count_.store(
          static_cast<uint32_t>(l_denylist_.size()),
          std::memory_order_release);
      l_stats_.rehash_moves += items.size();
      return;
    }
    new_buckets *= 2;
  }
}

template <typename Cell>
void BasicCuckooGraph<Cell>::MaybeShrinkL() {
  if (l_.num_buckets() <= config_.l_initial_buckets) return;
  const size_t stored = l_.size() + l_denylist_.size();
  if (stored * 4 < l_.num_cells()) RebuildL(l_.num_buckets() / 2);
}

template <typename Cell>
void BasicCuckooGraph<Cell>::RemoveVertex(NodeId u) {
  const size_t slot = l_.FindSlot(u, h1_, h2_);
  if (slot != internal::kNoSlot) {
    VertexEntry& e = l_.cell(slot);
    if (e.has_chain) FreeChain(e.chain.block);
    l_.Erase(slot);
    return;
  }
  for (size_t i = 0; i < l_denylist_.size(); ++i) {
    if (l_denylist_[i].key == u) {
      if (l_denylist_[i].has_chain) FreeChain(l_denylist_[i].chain.block);
      l_denylist_[i] = l_denylist_.back();
      l_denylist_.pop_back();
      reader_l_deny_count_.store(
          static_cast<uint32_t>(l_denylist_.size()),
          std::memory_order_release);
      return;
    }
  }
}

// ---- S-CHT chains ----------------------------------------------------------

template <typename Cell>
typename BasicCuckooGraph<Cell>::Chain* BasicCuckooGraph<Cell>::NewChain() {
  ++num_chains_;
  return Chain::New(ChainShapeFor(config_.s_initial_buckets, 1));
}

template <typename Cell>
internal::ChainShape BasicCuckooGraph<Cell>::ChainShapeFor(
    size_t head_buckets, uint32_t num_tables) const {
  internal::ChainShape shape;
  shape.head = static_cast<uint32_t>(head_buckets);
  shape.num_tables = static_cast<uint16_t>(num_tables);
  shape.d = static_cast<uint16_t>(config_.cells_per_bucket);
  shape.deny_capacity = static_cast<uint32_t>(config_.denylist_limit);
  return shape;
}

template <typename Cell>
void BasicCuckooGraph<Cell>::AttachChain(VertexEntry* e, Chain* c) {
  e->has_chain = true;
  e->chain = ChainRef{c, c->shape()};
}

// A superseded or dropped block may still be probed by an optimistic
// reader that copied the owning vertex entry before the writer swapped
// or detached it, so it rides the limbo list when a reclaimer is wired
// up.
template <typename Cell>
void BasicCuckooGraph<Cell>::Retire(Chain* c) {
  if (reclaimer_ != nullptr) {
    reclaimer_->Retire([c] { Chain::Delete(c); });
  } else {
    Chain::Delete(c);
  }
}

template <typename Cell>
void BasicCuckooGraph<Cell>::FreeChain(Chain* c) {
  --num_chains_;
  Retire(c);
}

template <typename Cell>
void BasicCuckooGraph<Cell>::ReplaceChain(VertexEntry* e, Chain* fresh) {
  Chain* old = e->chain.block;
  AttachChain(e, fresh);
  Retire(old);
}

template <typename Cell>
void BasicCuckooGraph<Cell>::TransformToChain(VertexEntry* e) {
  Cell moved[kInlineSlots];
  const uint32_t count = e->degree;
  for (uint32_t i = 0; i < count; ++i) moved[i] = InlineCell(*e, i);
  AttachChain(e, NewChain());
  ++transformations_;
  // The in-memory structure is at its most fragile right here: the entry
  // already points at a chain that holds none of the moved neighbors. A
  // crash now must still recover cleanly from WAL + snapshot alone.
  CrashPoint("core:mid_transformation");
  for (uint32_t i = 0; i < count; ++i) {
    ChainInsert(e, moved[i], Hash(moved[i].v));
  }
}

template <typename Cell>
void BasicCuckooGraph<Cell>::ChainInsert(VertexEntry* e, Cell cell,
                                         internal::KeyHashes k) {
  ++s_stats_.insert_attempts;
  // Load-driven growth: keep the occupancy below G ahead of placement.
  while (static_cast<double>(e->chain.block->size() + 1) >
         config_.expand_threshold *
             static_cast<double>(e->chain.block->num_cells())) {
    GrowChain(e);
  }
  while (true) {
    // Newest table first: older tables run near capacity by design, the
    // freshly appended one has the headroom.
    Chain* c = e->chain.block;
    for (uint32_t t = c->shape().num_tables; t-- > 0;) {
      if (c->Place(t, &cell, k, h1_, h2_, config_.max_kicks, &rng_,
                   &s_stats_.kicks)) {
        return;
      }
      // A failed Place hands back a different homeless survivor.
      k = Hash(cell.v);
    }
    if (config_.enable_deny_list && c->Park(cell)) {
      ++denylist_parks_;
      return;
    }
    GrowChain(e);
  }
}

template <typename Cell>
void BasicCuckooGraph<Cell>::GrowChain(VertexEntry* e) {
  const Chain& c = *e->chain.block;
  const uint32_t head = c.shape().head;
  if (c.shape().num_tables <
      static_cast<uint32_t>(config_.max_chain_tables)) {
    // Table II append step: a new table of half the head's length.
    ReplaceChain(e, Chain::Append(c));
    ++s_stats_.expansions;
    return;
  }
  // Table II merge step: double the head, everything re-places into the
  // new head, and a fresh empty half-size second table is created
  // (unless R = 1 caps the chain at a single table).
  ++s_stats_.merges;
  ReplaceChain(e, RebuildChain(c, size_t{head} * 2,
                               /*with_second=*/config_.max_chain_tables >= 2));
}

template <typename Cell>
typename BasicCuckooGraph<Cell>::Chain* BasicCuckooGraph<Cell>::RebuildChain(
    const Chain& c, size_t head_buckets, bool with_second) {
  head_buckets = std::max<size_t>(1, head_buckets);
  std::vector<Cell> items;
  items.reserve(c.size());
  c.ForEach([&items](const Cell& cell) { items.push_back(cell); });
  const auto deny_capacity =
      config_.enable_deny_list ? static_cast<uint32_t>(config_.denylist_limit)
                               : 0u;
  while (true) {
    Chain* fresh = Chain::New(ChainShapeFor(head_buckets, with_second ? 2 : 1));
    bool ok = true;
    for (const Cell& orig : items) {
      Cell moved = orig;
      internal::KeyHashes k = Hash(moved.v);
      bool placed = false;
      for (uint32_t t = 0; t < fresh->shape().num_tables && !placed; ++t) {
        placed = fresh->Place(t, &moved, k, h1_, h2_, config_.max_kicks,
                              &rng_, &s_stats_.kicks);
        if (!placed) k = Hash(moved.v);
      }
      if (placed) continue;
      if (fresh->deny_count() < deny_capacity && fresh->Park(moved)) {
        continue;
      }
      ok = false;
      break;
    }
    if (ok) {
      s_stats_.rehash_moves += items.size();
      return fresh;
    }
    Chain::Delete(fresh);
    head_buckets *= 2;
  }
}

template <typename Cell>
void BasicCuckooGraph<Cell>::MaybeReverseTransform(VertexEntry* e) {
  Chain* c = e->chain.block;
  if (config_.enable_inline_slots &&
      e->degree <= static_cast<uint32_t>(kInlineSlots)) {
    Cell moved[kInlineSlots];
    uint32_t count = 0;
    c->ForEach([&moved, &count](const Cell& cell) { moved[count++] = cell; });
    FreeChain(c);
    e->has_chain = false;
    for (uint32_t i = 0; i < count; ++i) SetInlineCell(e, i, moved[i]);
    ++reverse_transformations_;
    return;
  }
  const size_t head = c->shape().head;
  if (head > config_.s_initial_buckets &&
      static_cast<size_t>(e->degree) * 4 < c->num_cells()) {
    ReplaceChain(e, RebuildChain(*c,
                                 std::max(config_.s_initial_buckets, head / 2),
                                 /*with_second=*/false));
    ++reverse_transformations_;
  }
}

// ---- Optimistic (lock-free) read path --------------------------------------
//
// Everything below runs WITHOUT the owning shard's lock, racing the
// serialized writer. The discipline, in order:
//   1. probe crash-safely (fixed bounds from pinned blocks and
//      capacity-clamped counts; no pointer copied out of racing storage
//      is dereferenced),
//   2. validate the shard's sequence word (SeqValidator) — a pass proves
//      no writer ran since the snapshot, so copied data is committed,
//   3. only then trust the copy; re-validate after any further probing
//      through pointers the copy contained (kept alive by the caller's
//      epoch pin even if a writer starts after step 2).
// The functions are excluded from TSan instrumentation because the
// benign read-then-discard race on cell contents is the entire point;
// see common/thread_annotations.h.

template <typename Cell>
CUCKOOGRAPH_NO_SANITIZE_THREAD bool
BasicCuckooGraph<Cell>::OptimisticFindVertex(NodeId u,
                                             VertexEntry* out) const {
  const auto* block = l_.reader_block();
  if (block == nullptr) return false;
  const size_t slot =
      internal::CuckooTable<VertexEntry>::FindSlotIn(*block, u, h1_, h2_);
  if (slot != internal::kNoSlot) {
    *out = block->cells[slot];
    return true;
  }
  // The denylist scan is bounded by the published count, never the
  // vector's own (unsynchronized) size; both stay within the capacity
  // reserved at construction.
  const uint32_t count =
      std::min(reader_l_deny_count_.load(std::memory_order_acquire),
               static_cast<uint32_t>(config_.denylist_limit));
  const VertexEntry* deny = l_denylist_.data();
  for (uint32_t i = 0; i < count; ++i) {
    if (deny[i].key == u) {
      *out = deny[i];
      return true;
    }
  }
  return false;
}

template <typename Cell>
CUCKOOGRAPH_NO_SANITIZE_THREAD bool BasicCuckooGraph<Cell>::TryQueryEdge(
    NodeId u, NodeId v, const internal::SeqValidator& sv,
    bool* present) const {
  VertexEntry entry;
  const bool vertex_found = OptimisticFindVertex(u, &entry);
  // Validate BEFORE trusting the copy: a pass proves `entry` (including
  // its degree and, crucially, its chain pointer) is committed state.
  if (!sv.Valid()) return false;
  if (!vertex_found) {
    *present = false;  // validated miss: the vertex really was absent
    return true;
  }
  if (!entry.has_chain) {
    // The inline slots travelled inside the validated copy; this probe
    // touches only local memory.
    *present =
        internal::MatchKeyMask(entry.inline_.v, entry.degree, v) != 0;
    return true;
  }
  // entry.chain is a committed pointer and the epoch pin keeps its block
  // alive (a writer that replaces it retires it through the reclaimer),
  // but the block's *contents* may be mutated after validation — so the
  // chain probe's outcome needs a second validation.
  const bool found =
      Chain::Find(entry.chain.block, entry.chain.shape, v, Hash(v)) != nullptr;
  if (!sv.Valid()) return false;
  *present = found;
  return true;
}

template <typename Cell>
CUCKOOGRAPH_NO_SANITIZE_THREAD bool BasicCuckooGraph<Cell>::TryOutDegree(
    NodeId u, const internal::SeqValidator& sv, size_t* degree) const {
  VertexEntry entry;
  const bool vertex_found = OptimisticFindVertex(u, &entry);
  if (!sv.Valid()) return false;
  *degree = vertex_found ? entry.degree : 0;
  return true;
}

template class BasicCuckooGraph<internal::KeyCell>;
template class BasicCuckooGraph<internal::WeightedCell>;

}  // namespace cuckoograph
