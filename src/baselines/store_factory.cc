#include "baselines/store_factory.h"

#include <stdexcept>

#include "baselines/adjacency_list_store.h"
#include "baselines/hash_map_store.h"
#include "baselines/sorted_vector_store.h"
#include "core/cuckoo_graph.h"
#include "core/sharded_cuckoo_graph.h"
#include "core/weighted_cuckoo_graph.h"
#include "persist/durable_store.h"
#include "persist/file_io.h"

namespace cuckoograph {

namespace {

// Durable scheme -> wrapped scheme. The durable entries are decorators
// (persist/durable_store.h), not stores of their own.
const char* InnerSchemeFor(const std::string& durable_name) {
  if (durable_name == "cuckoo-durable") return "CuckooGraph";
  if (durable_name == "cuckoo-sharded-durable") return "cuckoo-sharded";
  return nullptr;
}

// Table instantiation of a durable scheme: an owned mkdtemp dir
// (removed with the store) and no per-op fdatasync.
std::unique_ptr<GraphStore> MakeTempDirDurable(const std::string& name) {
  std::string error;
  persist::DurableOptions opts;
  opts.dir = persist::MakeTempDir("cuckoograph-" + name + "-", &error);
  if (opts.dir.empty()) {
    throw std::runtime_error("scheme '" + name + "': " + error);
  }
  opts.owns_dir = true;
  opts.sync_mode = WalSyncMode::kNone;
  auto store = persist::DurableStore::Open(
      MakeStoreByName(InnerSchemeFor(name)), name, opts, &error);
  if (store == nullptr) {
    throw std::runtime_error("scheme '" + name + "': " + error);
  }
  return store;
}

template <typename Store>
std::unique_ptr<GraphStore> Make() {
  return std::make_unique<Store>();
}

struct Scheme {
  const char* name;
  std::unique_ptr<GraphStore> (*make)();
};

// Every scheme, in column order: CuckooGraph, then the LiveGraph /
// Spruce / Sortledton stand-ins (the paper's comparison columns).
constexpr Scheme kSchemes[] = {
    {"CuckooGraph", Make<CuckooGraph>},
    {"AdjacencyList", Make<baselines::AdjacencyListStore>},
    {"HashMap", Make<baselines::HashMapStore>},
    {"SortedVector", Make<baselines::SortedVectorStore>},
    // The extended (weighted) store trails the paper's comparison columns;
    // weight-requiring benches (fig11 SSSP) find it via Capabilities().
    {"cuckoo-weighted", Make<WeightedCuckooGraph>},
    // The concurrent sharded front-end (Config::num_shards shards at the
    // default geometry); the only scheme advertising thread-safe ops.
    {"cuckoo-sharded", Make<ShardedCuckooGraph>},
    // WAL+snapshot decorators over the single-threaded and sharded
    // structures. These instances live in an owned temp dir with syncs
    // off, so the comparison benches measure the logging cost without
    // every cell paying an fdatasync; the durability benches and crash
    // tests open their own instances with explicit dirs and sync modes
    // through MakeDurableStoreByName.
    {"cuckoo-durable", [] { return MakeTempDirDurable("cuckoo-durable"); }},
    {"cuckoo-sharded-durable",
     [] { return MakeTempDirDurable("cuckoo-sharded-durable"); }},
};

// Table lookup shared by MakeStoreByName and ParseSchemesFlag; throws
// the one canonical unknown-name error.
const Scheme& FindScheme(const std::string& name) {
  std::string joined;
  for (const Scheme& scheme : kSchemes) {
    if (scheme.name == name) return scheme;
    joined += std::string(joined.empty() ? "" : ", ") + scheme.name;
  }
  throw std::invalid_argument("unknown scheme '" + name +
                              "'; valid schemes: " + joined);
}

}  // namespace

std::vector<std::string> AllSchemeNames() {
  std::vector<std::string> names;
  for (const Scheme& scheme : kSchemes) names.push_back(scheme.name);
  return names;
}

std::unique_ptr<GraphStore> MakeStoreByName(const std::string& name) {
  return FindScheme(name).make();
}

std::unique_ptr<persist::DurableStore> MakeDurableStoreByName(
    const std::string& name, const persist::DurableOptions& opts) {
  const char* inner = InnerSchemeFor(name);
  if (inner == nullptr) {
    throw std::invalid_argument(
        "unknown durable scheme '" + name +
        "'; valid durable schemes: cuckoo-durable, cuckoo-sharded-durable");
  }
  std::string error;
  auto store =
      persist::DurableStore::Open(MakeStoreByName(inner), name, opts, &error);
  if (store == nullptr) {
    throw std::runtime_error("open durable scheme '" + name + "': " + error);
  }
  return store;
}

std::vector<std::string> ParseSchemesFlag(const std::string& csv) {
  if (csv.empty()) return AllSchemeNames();
  std::vector<std::string> selected;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    const std::string name = csv.substr(start, end - start);
    if (!name.empty()) {
      FindScheme(name);  // throws on unknown names
      selected.push_back(name);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return selected;
}

}  // namespace cuckoograph
