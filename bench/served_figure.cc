// The Redis-protocol figures: Figure 17 (CuckooGraph as a Redis module,
// Section V-F) and the served-traffic sweep beyond the paper. Both run
// one harness. A real epoll TCP RESP server (src/server/tcp_server.h)
// hosts the CG.* command family; one client thread per TCP connection
// drives insert / query / delete phases plus a Zipf read/write mix; and
// every reply, in every phase, is checked against a single-threaded
// oracle replay of that connection's op stream. Either figure exits
// non-zero on any divergence, so its smoke run is a correctness gate for
// the whole socket path, not just a throughput printout. Both print the
// same CSV columns (Insertion / Query / Deletion / Mixed(zipf)).
//
// fig17 is the paper's setting: a single-threaded CuckooGraph behind one
// server worker, one client, one request in flight, on the CAIDA and
// StackOverflow streams. Flags: --scale (dataset multiplier), --alpha
// and --reads (mixed phase), --csv <path>.
//
// served sweeps connection and worker counts over the sharded store,
// each connection on a private Zipf-skewed key range. Flags: --scale
// (ops multiplier), --connections (sweep ceiling, default 8), --workers
// (server event-loop threads, default 2; the sweep also runs every row
// at 1 worker when workers > 1), --pipeline (requests in flight per
// connection, default 16), --alpha (Zipf skew, default 1.5), --reads
// (mixed-phase read fraction, default 0.5), --csv <path>, --durable-dir
// <dir> (adds one row per wal_sync_mode served out of the WAL-backed
// cuckoo-sharded-durable store, plus a durability-stats line; each row
// uses its own subdirectory of <dir> and cleans up).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baselines/store_factory.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/config.h"
#include "core/cuckoo_graph.h"
#include "core/sharded_cuckoo_graph.h"
#include "datasets/datasets.h"
#include "figures.h"
#include "persist/durable_store.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "server/resp_client.h"
#include "server/tcp_server.h"

namespace cuckoograph::bench {

namespace {

using redis_sim::RespType;
using redis_sim::RespValue;
using server::RespClient;
using server::ServerConfig;
using server::TcpRespServer;

// The four phase columns both figures report, in order.
const std::vector<std::string>& PhaseColumns() {
  static const std::vector<std::string> columns = {
      "Insertion", "Query", "Deletion", "Mixed(zipf)"};
  return columns;
}

enum class OpKind { kInsert, kQuery, kDelete };

struct MixedOp {
  OpKind kind;
  Edge e;
};

// Zipf-ish node pick matching the dataset generators: alpha > 1
// concentrates probability on low ids.
NodeId ZipfPick(SplitMix64& rng, NodeId n, double alpha) {
  const double r = std::pow(rng.NextDouble(), alpha);
  const NodeId id = static_cast<NodeId>(r * static_cast<double>(n));
  return id >= n ? n - 1 : id;
}

// `n` Zipf-skewed edges with sources in [base, base + range) and values
// in [0, values). Deterministic per seed, so a connection's stream can
// be regenerated for oracle replay.
std::vector<Edge> MakeZipfEdges(uint64_t seed, size_t n, NodeId base,
                                NodeId range, NodeId values, double alpha) {
  SplitMix64 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    edges.push_back(Edge{base + ZipfPick(rng, range, alpha),
                         ZipfPick(rng, values, alpha)});
  }
  return edges;
}

// A Zipf-skewed read/write mix: `read_frac` of ops are queries, the
// writes split 60/40 insert/delete. Same key shape as MakeZipfEdges.
std::vector<MixedOp> MakeZipfMix(uint64_t seed, size_t n, NodeId base,
                                 NodeId range, NodeId values, double alpha,
                                 double read_frac) {
  SplitMix64 rng(seed);
  std::vector<MixedOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Edge e{base + ZipfPick(rng, range, alpha),
                 ZipfPick(rng, values, alpha)};
    const double roll = rng.NextDouble();
    OpKind kind = OpKind::kDelete;
    if (roll < read_frac) {
      kind = OpKind::kQuery;
    } else if (roll < read_frac + (1.0 - read_frac) * 0.6) {
      kind = OpKind::kInsert;
    }
    ops.push_back(MixedOp{kind, e});
  }
  return ops;
}

// The CG.* command that performs `kind`.
const char* CommandFor(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert:
      return "CG.INSERT";
    case OpKind::kQuery:
      return "CG.QUERY";
    case OpKind::kDelete:
      return "CG.DEL";
  }
  return "CG.QUERY";  // unreachable
}

// The single-threaded oracle: replays one op over the live-edge set and
// returns the integer reply the server must produce. Valid as long as
// no other client touches the same source range — which is how the
// served sweep partitions its key space.
long long OracleReply(std::unordered_set<uint64_t>* live, OpKind kind,
                      const Edge& e) {
  const uint64_t key = EdgeKey(e);
  switch (kind) {
    case OpKind::kInsert:
      return live->insert(key).second ? 1 : 0;
    case OpKind::kQuery:
      return live->count(key) != 0 ? 1 : 0;
    case OpKind::kDelete:
      return live->erase(key) != 0 ? 1 : 0;
  }
  return 0;  // unreachable
}

constexpr NodeId kSourceRange = 4096;  // sources per connection
constexpr NodeId kValueRange = 4096;
constexpr NodeId kConnStride = 1 << 16;  // private source base per conn

struct LoadConfig {
  size_t ops_per_conn = 0;
  size_t pipeline = 16;
  double alpha = 1.5;
  double read_frac = 0.5;
};

// Drives one connection through `ops`, `pipeline` requests in flight,
// checking every reply against the oracle replay. Returns the number of
// mismatched replies.
size_t DriveOps(RespClient* client, const std::vector<MixedOp>& ops,
                size_t pipeline, std::unordered_set<uint64_t>* live) {
  size_t mismatches = 0;
  std::vector<long long> expected;
  expected.reserve(pipeline);
  size_t i = 0;
  while (i < ops.size()) {
    const size_t burst = std::min(pipeline, ops.size() - i);
    for (size_t b = 0; b < burst; ++b) {
      const MixedOp& op = ops[i + b];
      client->Pipeline({CommandFor(op.kind), std::to_string(op.e.u),
                        std::to_string(op.e.v)});
      expected.push_back(OracleReply(live, op.kind, op.e));
    }
    const std::vector<RespValue> replies = client->Flush();
    for (size_t b = 0; b < replies.size(); ++b) {
      if (replies[b].type != RespType::kInteger ||
          replies[b].integer != expected[b]) {
        ++mismatches;
      }
    }
    expected.clear();
    i += burst;
  }
  return mismatches;
}

// One phase: every connection thread drives its own op list; the wall
// time of the whole spawn-to-join window is the aggregate denominator.
double TimePhase(std::vector<RespClient>& clients,
                 const std::vector<std::vector<MixedOp>>& per_conn_ops,
                 size_t pipeline,
                 std::vector<std::unordered_set<uint64_t>>* lives,
                 std::atomic<size_t>* mismatches) {
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      *mismatches += DriveOps(&clients[c], per_conn_ops[c], pipeline,
                              &(*lives)[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  return timer.ElapsedSeconds();
}

std::vector<MixedOp> AsOps(const std::vector<Edge>& edges, OpKind kind) {
  std::vector<MixedOp> ops;
  ops.reserve(edges.size());
  for (const Edge& e : edges) ops.push_back(MixedOp{kind, e});
  return ops;
}

// Each phase's op lists, one list per connection.
struct PhaseOps {
  std::vector<std::vector<MixedOp>> insert, query, del, mixed;
};

struct RowResult {
  double insert_mops = 0, query_mops = 0, delete_mops = 0, mixed_mops = 0;
  bool ok = true;
  std::string durable_note;  // stats line for durable rows, else empty
};

// Serves `store` from a `workers`-thread TcpRespServer to one client per
// op list, runs the four phases in order with `pipeline` requests in
// flight per client, and checks every reply and the final edge count
// against the oracle (failures are reported under `label`). The store
// is read only after Stop() has joined the workers, so a single-threaded
// store is safe behind one worker.
RowResult ServePhases(GraphStore* store, int workers, size_t pipeline,
                      const PhaseOps& ops, const std::string& label) {
  redis_sim::CommandTable table;
  redis_sim::RegisterGraphCommands(&table, store);
  ServerConfig server_config;
  server_config.num_workers = workers;
  TcpRespServer server(server_config, &table);
  std::string error;
  RowResult result;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "FAIL: %s: server start: %s\n", label.c_str(),
                 error.c_str());
    result.ok = false;
    return result;
  }

  std::vector<RespClient> clients(ops.insert.size());
  for (RespClient& client : clients) {
    if (!client.Connect("127.0.0.1", server.port(), &error)) {
      std::fprintf(stderr, "FAIL: %s: connect: %s\n", label.c_str(),
                   error.c_str());
      result.ok = false;
      return result;
    }
  }

  std::vector<std::unordered_set<uint64_t>> lives(clients.size());
  std::atomic<size_t> mismatches{0};
  const auto phase = [&](const std::vector<std::vector<MixedOp>>& lists) {
    size_t total = 0;
    for (const auto& list : lists) total += list.size();
    return Mops(total,
                TimePhase(clients, lists, pipeline, &lives, &mismatches));
  };
  result.insert_mops = phase(ops.insert);
  result.query_mops = phase(ops.query);
  result.delete_mops = phase(ops.del);
  result.mixed_mops = phase(ops.mixed);
  server.Stop();

  if (mismatches.load() != 0) {
    std::fprintf(stderr, "FAIL: %s: %zu replies diverged from the oracle\n",
                 label.c_str(), mismatches.load());
    result.ok = false;
  }
  size_t expected_edges = 0;
  for (const auto& live : lives) expected_edges += live.size();
  if (store->NumEdges() != expected_edges) {
    std::fprintf(stderr, "FAIL: %s: store holds %zu edges, oracle says %zu\n",
                 label.c_str(), store->NumEdges(), expected_edges);
    result.ok = false;
  }
  return result;
}

// One served-sweep row over private per-connection Zipf ranges. When
// `durable` is non-null the served store is the WAL-backed
// cuckoo-sharded-durable decorator opened in durable->dir, and the row
// ends with a one-line durability-stats print (records / syncs / group
// commits), so the sync amortization under pipelined socket load is
// visible next to the throughput number.
RowResult RunRow(int connections, int workers, const LoadConfig& load,
                 const persist::DurableOptions* durable = nullptr) {
  Config config;
  ShardedCuckooGraph mem_store(config);
  std::unique_ptr<persist::DurableStore> durable_store;
  GraphStore* store = &mem_store;
  if (durable != nullptr) {
    try {
      durable_store = MakeDurableStoreByName("cuckoo-sharded-durable",
                                             *durable);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "FAIL: durable open: %s\n", ex.what());
      RowResult failed;
      failed.ok = false;
      return failed;
    }
    store = durable_store.get();
  }

  // Per-connection deterministic streams over private source ranges, so
  // each connection's oracle replay is exact regardless of interleaving.
  const size_t n = load.ops_per_conn;
  PhaseOps ops;
  for (int c = 0; c < connections; ++c) {
    const NodeId base = 1 + static_cast<NodeId>(c) * kConnStride;
    const uint64_t seed = 4242 + static_cast<uint64_t>(c);
    const std::vector<Edge> stream = MakeZipfEdges(
        seed, n, base, kSourceRange, kValueRange, load.alpha);
    ops.insert.push_back(AsOps(stream, OpKind::kInsert));
    ops.query.push_back(AsOps(stream, OpKind::kQuery));
    ops.del.push_back(AsOps(datasets::DedupEdges(stream), OpKind::kDelete));
    ops.mixed.push_back(MakeZipfMix(seed ^ 0x5eed, n, base, kSourceRange,
                                    kValueRange, load.alpha,
                                    load.read_frac));
  }

  RowResult result =
      ServePhases(store, workers, load.pipeline, ops,
                  std::to_string(connections) + "c/" +
                      std::to_string(workers) + "w");
  if (durable_store != nullptr) {
    const persist::DurableStats stats = durable_store->durable_stats();
    char note[160];
    std::snprintf(note, sizeof(note),
                  "  (durable: %llu records, %llu syncs, %llu group "
                  "commits, %llu checkpoints)",
                  static_cast<unsigned long long>(stats.wal.records_appended),
                  static_cast<unsigned long long>(stats.wal.syncs),
                  static_cast<unsigned long long>(stats.wal.group_commits),
                  static_cast<unsigned long long>(stats.checkpoints));
    result.durable_note = note;
  }
  return result;
}

}  // namespace

// Figure 17: CuckooGraph-on-Redis throughput (Section V-F). Every
// operation is one request/reply round trip over loopback TCP: RESP
// encoding, the kernel socket both ways, request parsing, command
// dispatch and reply decoding — the protocol overhead behind the drop
// from CPU-native Mops to the ~0.04-0.05 Mops range the paper reports
// on a real Redis.
int RunFig17(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);
  const double alpha = flags.GetDouble("alpha", 1.5);
  const double read_frac = flags.GetDouble("reads", 0.5);

  PrintHeader(figure.id, figure.title, PhaseColumns());
  bool ok = true;
  for (const char* name : {"CAIDA", "StackOverflow"}) {
    const datasets::Dataset dataset = MakeBenchDataset(name, user_scale);
    // The mixed phase starts on the empty store the deletions leave.
    PhaseOps ops;
    ops.insert.push_back(AsOps(dataset.stream, OpKind::kInsert));
    ops.query.push_back(AsOps(dataset.stream, OpKind::kQuery));
    ops.del.push_back(
        AsOps(datasets::DedupEdges(dataset.stream), OpKind::kDelete));
    ops.mixed.push_back(MakeZipfMix(/*seed=*/4242, dataset.stream.size(),
                                    /*base=*/1, kSourceRange, kValueRange,
                                    alpha, read_frac));
    CuckooGraph graph;
    const RowResult r =
        ServePhases(&graph, /*workers=*/1, /*pipeline=*/1, ops, name);
    PrintRow(figure.id, {name, FmtMops(r.insert_mops), FmtMops(r.query_mops),
                         FmtMops(r.delete_mops), FmtMops(r.mixed_mops)});
    ok = ok && r.ok;
  }
  std::printf("(paper: ~0.04-0.05 Mops on real Redis, whose native peak "
              "was ~0.16 Mops on the authors' server; the served figure's "
              "1c/1w/p1 row is the same harness on Zipf streams)\n");
  return ok ? 0 : 1;
}

int RunServed(const Figure& figure, const Flags& flags) {
  const double user_scale = flags.GetDouble("scale", 1.0);
  // The registry bounds --connections, --workers and --pipeline.
  const int max_connections =
      static_cast<int>(flags.GetInt("connections", 8));
  const int max_workers = static_cast<int>(flags.GetInt("workers", 2));
  LoadConfig load;
  load.pipeline = static_cast<size_t>(flags.GetInt("pipeline", 16));
  load.alpha = flags.GetDouble("alpha", 1.5);
  load.read_frac = flags.GetDouble("reads", 0.5);

  PrintHeader(figure.id, figure.title, PhaseColumns());
  // Fixed total traffic per row: throughput comparisons across connection
  // counts serve the same number of ops.
  const size_t total_ops =
      std::max<size_t>(4'000, static_cast<size_t>(400'000 * user_scale));
  bool ok = true;
  const auto row = [&](int connections, int workers,
                       const persist::DurableOptions* durable,
                       const std::string& suffix) {
    load.ops_per_conn =
        std::max<size_t>(250, total_ops / static_cast<size_t>(connections));
    const RowResult r = RunRow(connections, workers, load, durable);
    PrintRow(figure.id,
             {std::to_string(connections) + "c/" + std::to_string(workers) +
                  "w/p" + std::to_string(load.pipeline) + suffix,
              FmtMops(r.insert_mops), FmtMops(r.query_mops),
              FmtMops(r.delete_mops), FmtMops(r.mixed_mops)});
    if (!r.durable_note.empty()) std::puts(r.durable_note.c_str());
    ok = ok && r.ok;
  };

  std::vector<int> worker_counts;
  if (max_workers > 1) worker_counts.push_back(1);
  worker_counts.push_back(std::max(1, max_workers));
  for (const int workers : worker_counts) {
    for (const int connections : PowersOfTwoUpTo(max_connections)) {
      row(connections, workers, nullptr, "");
    }
  }
  // Durable rows: the same pipelined load served out of the WAL-backed
  // sharded store, one row per wal_sync_mode, at the sweep ceiling.
  const std::string durable_dir = flags.GetString("durable-dir", "");
  if (!durable_dir.empty()) {
    struct { const char* label; WalSyncMode mode; } kModes[] = {
        {"wal:none", WalSyncMode::kNone},
        {"wal:group", WalSyncMode::kGroup},
        {"wal:always", WalSyncMode::kAlways},
    };
    for (const auto& m : kModes) {
      Config durable_config;
      durable_config.wal_sync_mode = m.mode;
      persist::DurableOptions opts = persist::MakeDurableOptions(
          durable_config, durable_dir + "/served-" + m.label);
      opts.owns_dir = true;  // each row starts empty and cleans up
      row(max_connections, std::max(1, max_workers), &opts,
          std::string(" ") + m.label);
    }
  }

  if (!ok) {
    std::fprintf(stderr, "served-traffic: oracle check FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace cuckoograph::bench
