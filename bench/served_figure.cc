// Served traffic: the over-socket successor to Figure 17. A real epoll
// TCP RESP server hosts the CG.* command family over the sharded store,
// and a multi-threaded client load generator (one thread per TCP
// connection, one private Zipf-skewed key range each) drives pipelined
// insert / query / delete phases plus a Zipf read/write mix, sweeping
// connection and server-worker counts. Every reply is checked against a
// single-threaded oracle replay of that connection's op stream and the
// figure exits non-zero on any divergence, so the smoke run is a
// correctness gate for the whole socket path, not just a throughput
// printout.
//
// Flags: --scale (ops multiplier), --connections (sweep ceiling, default
// 8), --workers (server event-loop threads, default 2; the sweep also
// runs every row at 1 worker when workers > 1), --pipeline (requests in
// flight per connection, default 16), --alpha (Zipf skew, default 1.5),
// --reads (mixed-phase read fraction, default 0.5), --csv <path>,
// --durable-dir <dir> (adds one row per wal_sync_mode served out of the
// WAL-backed cuckoo-sharded-durable store, plus a durability-stats
// line; each row uses its own subdirectory of <dir> and cleans up).
// CSV schema matches fig17 (same phase columns), so the in-process and
// served numbers diff directly.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baselines/store_factory.h"
#include "bench_util.h"
#include "persist/durable_store.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/config.h"
#include "datasets/datasets.h"
#include "core/sharded_cuckoo_graph.h"
#include "figures.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "served_workload.h"
#include "server/resp_client.h"
#include "server/tcp_server.h"

namespace cuckoograph::bench {

namespace {

using redis_sim::RespType;
using redis_sim::RespValue;
using server::RespClient;
using server::ServerConfig;
using server::TcpRespServer;

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

struct RowResult {
  double insert_mops = 0, query_mops = 0, delete_mops = 0, mixed_mops = 0;
  bool ok = true;
  std::string durable_note;  // stats line for durable rows, else empty
};

// When `durable` is non-null the served store is the WAL-backed
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
  redis_sim::CommandTable table;
  redis_sim::RegisterGraphCommands(&table, store);
  ServerConfig server_config;
  server_config.num_workers = workers;
  TcpRespServer server(server_config, &table);
  std::string error;
  RowResult result;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "FAIL: server start: %s\n", error.c_str());
    result.ok = false;
    return result;
  }

  std::vector<RespClient> clients(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    if (!clients[static_cast<size_t>(c)].Connect("127.0.0.1", server.port(),
                                                 &error)) {
      std::fprintf(stderr, "FAIL: connect: %s\n", error.c_str());
      result.ok = false;
      return result;
    }
  }

  // Per-connection deterministic streams over private source ranges, so
  // each connection's oracle replay is exact regardless of interleaving.
  const size_t n = load.ops_per_conn;
  std::vector<std::vector<MixedOp>> inserts, queries, deletes, mixes;
  for (int c = 0; c < connections; ++c) {
    const NodeId base = 1 + static_cast<NodeId>(c) * kConnStride;
    const uint64_t seed = 4242 + static_cast<uint64_t>(c);
    const std::vector<Edge> stream = MakeZipfEdges(
        seed, n, base, kSourceRange, kValueRange, load.alpha);
    inserts.push_back(AsOps(stream, OpKind::kInsert));
    queries.push_back(AsOps(stream, OpKind::kQuery));
    deletes.push_back(AsOps(datasets::DedupEdges(stream), OpKind::kDelete));
    mixes.push_back(MakeZipfMix(seed ^ 0x5eed, n, base, kSourceRange,
                                       kValueRange, load.alpha,
                                       load.read_frac));
  }

  std::vector<std::unordered_set<uint64_t>> lives(
      static_cast<size_t>(connections));
  std::atomic<size_t> mismatches{0};
  const size_t total = n * static_cast<size_t>(connections);

  result.insert_mops =
      Mops(total,
           TimePhase(clients, inserts, load.pipeline, &lives, &mismatches));
  result.query_mops =
      Mops(total,
           TimePhase(clients, queries, load.pipeline, &lives, &mismatches));
  size_t delete_total = 0;
  for (const auto& ops : deletes) delete_total += ops.size();
  result.delete_mops =
      Mops(delete_total,
           TimePhase(clients, deletes, load.pipeline, &lives, &mismatches));
  result.mixed_mops =
      Mops(total,
           TimePhase(clients, mixes, load.pipeline, &lives, &mismatches));

  if (mismatches.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %dc/%dw: %zu replies diverged from the oracle\n",
                 connections, workers, mismatches.load());
    result.ok = false;
  }
  size_t expected_edges = 0;
  for (const auto& live : lives) expected_edges += live.size();
  if (store->NumEdges() != expected_edges) {
    std::fprintf(stderr,
                 "FAIL: %dc/%dw: store holds %zu edges, oracle says %zu\n",
                 connections, workers, store->NumEdges(), expected_edges);
    result.ok = false;
  }
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

  PrintHeader(figure.id, figure.title, ServedSchemaColumns());
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

  std::printf("(diff against fig17's --csv: same columns, same Zipf mix, "
              "minus the kernel socket)\n");
  if (!ok) {
    std::fprintf(stderr, "served-traffic: oracle check FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace cuckoograph::bench
