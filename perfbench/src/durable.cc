// Workload `durable`: cuckoo-sharded-durable in WalSyncMode::kGroup with
// the default checkpoint cadence. Set-up preloads each of four writers'
// private key ranges to the 80% occupancy its 80/20 insert/delete mix
// holds steady, so the store neither grows nor shrinks while measured.
// The writers issue 16-edge InsertEdges / DeleteEdges batches, each
// waiting for its group commit, until the time is up and at least three
// automatic checkpoints have run (or twice the time is up). Then
// an explicit checkpoint and a fixed WAL tail make the on-disk state the
// same size on every run, and the store is closed, reopened from its
// directory and checked edge for edge. The only workload where persist
// works. Its timed op is the reopen: ops_per_s is edges restored per
// second, op_p50_us the median reopen time, bytes_per_edge the recovered
// store's footprint. The write path's throughput and latency are
// per-layer figures, because they follow the fdatasync latency of the
// (possibly shared) disk.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/sharded_cuckoo_graph.h"
#include "gen.h"
#include "persist/durable_store.h"
#include "persist/file_io.h"
#include "proc_stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using cuckoograph::Config;
using cuckoograph::EdgeKey;
using cuckoograph::ShardedCuckooGraph;
using cuckoograph::Span;
using cuckoograph::persist::DurableStore;
using cuckoograph::persist::MakeDurableOptions;
using cuckoograph::persist::RemoveDirTree;

constexpr int kWriters = 4;
constexpr size_t kBatch = 16;
constexpr double kInsertFrac = 0.8;
// Each writer draws uniformly from its own kSources x kTargets block.
constexpr NodeId kSources = 512;
constexpr NodeId kTargets = 256;
// Large preload records keep set-up's fdatasync count, and so its
// exposure to the shared disk, small.
constexpr size_t kPreloadBatch = 65536;
constexpr uint64_t kMinCheckpoints = 3;
// Batches per writer after the explicit checkpoint: the WAL every
// recovery replays. Each waits for a group commit, so on a slow shared
// disk (25k acknowledged edges/s measured) the tail takes seconds.
constexpr size_t kTailBatches = 1024;
// A reopen takes about 0.2 s and single reopens vary by up to 40% within
// a run, so the median is taken over many.
constexpr int kRecoveryReps = 11;
// The writers stop once the run's time is up and kMinCheckpoints
// automatic checkpoints have run, or at kMaxWindowFactor times the run's
// time when the disk is too slow for that, which keeps the run well
// inside its time limit.
constexpr double kMaxWindowFactor = 2;
// Batch latencies are kept per slice of the window; the latency metrics
// are the median over slices of the slice's percentile, so a short
// stall on the shared disk moves one slice, not the result.
constexpr double kSliceSeconds = 0.5;
constexpr uint64_t kSpanEvery = 64;

std::unique_ptr<DurableStore> OpenStore(const std::string& dir) {
  std::string error;
  auto store = DurableStore::Open(std::make_unique<ShardedCuckooGraph>(Config()),
                                  "cuckoo-sharded-durable",
                                  MakeDurableOptions(Config(), dir), &error);
  if (store == nullptr) throw std::runtime_error("durable open: " + error);
  return store;
}

struct Writer {
  explicit Writer(uint64_t seed) : rng(seed) {}
  SplitMix64 rng;
  std::vector<LatencyHistogram> latency_ns;  // by window slice
  uint64_t calls = 0, mismatched = 0, acked_edges = 0;
  std::unordered_set<uint64_t> live;  // this writer's oracle
  std::string error;
};

NodeId BaseOf(int w) { return static_cast<NodeId>(w) * kSources; }

// Inserts a seeded 80% of every writer's key block, in large batches,
// then checkpoints so the measured run starts from a snapshot.
std::unique_ptr<DurableStore> SetUp(const std::string& dir, uint64_t seed,
                                    std::vector<std::unique_ptr<Writer>>* ws) {
  RemoveDirTree(dir);
  auto store = OpenStore(dir);
  ws->clear();
  std::vector<Edge> batch;
  for (int w = 0; w < kWriters; ++w) {
    ws->push_back(std::make_unique<Writer>(SubSeed(seed, 30 + w)));
    Writer& writer = *ws->back();
    for (NodeId u = 0; u < kSources; ++u) {
      for (NodeId v = 0; v < kTargets; ++v) {
        if (writer.rng.NextDouble() >= kInsertFrac) continue;
        batch.push_back(Edge{BaseOf(w) + u, v});
        writer.live.insert(EdgeKey(batch.back()));
        if (batch.size() == kPreloadBatch) {
          store->InsertEdges(Span<const Edge>(batch));
          batch.clear();
        }
      }
    }
  }
  store->InsertEdges(Span<const Edge>(batch));
  std::string error;
  if (!store->Checkpoint(&error)) {
    throw std::runtime_error("durable preload checkpoint: " + error);
  }
  return store;
}

// Issues batches until `stop` is set, or `max_calls` batches, then
// counts itself in `finished`. Latencies are filed by their slice of
// the window that began at `start_ns`.
void WriterLoop(DurableStore* store, int w, Tracer* tracer,
                const std::atomic<bool>* stop, uint64_t max_calls,
                uint64_t start_ns, std::atomic<int>* finished, Writer* out) {
  Edge batch[kBatch];
  try {
    for (uint64_t i = 0; i < max_calls && !stop->load(std::memory_order_relaxed);
         ++i) {
      const bool insert = out->rng.NextDouble() < kInsertFrac;
      size_t expected = 0;
      for (Edge& e : batch) {
        e.u = BaseOf(w) + out->rng.NextBelow(kSources);
        e.v = out->rng.NextBelow(kTargets);
        expected += insert ? out->live.insert(EdgeKey(e)).second
                           : out->live.erase(EdgeKey(e));
      }
      ScopedSpan span(out->calls % kSpanEvery == 0 ? tracer : nullptr,
                      insert ? "persist.InsertEdges" : "persist.DeleteEdges");
      const Span<const Edge> edges(batch, kBatch);
      const size_t got =
          insert ? store->InsertEdges(edges) : store->DeleteEdges(edges);
      const uint64_t latency = span.Finish();
      const size_t slice = static_cast<size_t>(
          static_cast<double>(NowNs() - start_ns) / 1e9 / kSliceSeconds);
      if (slice >= out->latency_ns.size()) out->latency_ns.resize(slice + 1);
      out->latency_ns[slice].Record(latency);
      ++out->calls;
      out->acked_edges += kBatch;
      out->mismatched += got != expected;
    }
  } catch (const std::exception& e) {
    out->error = e.what();
  }
  finished->fetch_add(1);
}

// Runs every writer on its own thread until `done()` holds (polled) or
// each has issued `max_calls` batches.
template <typename Done>
void RunWriters(DurableStore* store, Tracer* tracer,
                const std::vector<std::unique_ptr<Writer>>& writers,
                uint64_t max_calls, Done done) {
  std::atomic<bool> stop{false};
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  const uint64_t start_ns = NowNs();
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back(WriterLoop, store, w, tracer, &stop, max_calls,
                         start_ns, &finished, writers[w].get());
  }
  while (finished.load() < kWriters && !done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
}

}  // namespace

Results RunDurable(const RunArgs& args, Tracer* tracer) {
  Results r;
  const std::string dir = args.data_dir + "/durable";
  std::vector<std::unique_ptr<Writer>> writers;
  std::unique_ptr<DurableStore> store =
      RepeatedSetup(&r, [&] { return SetUp(dir, args.seed, &writers); });

  const auto stats0 = store->durable_stats();
  const uint64_t disk0 = ProcessWriteBytes();
  const uint64_t start = NowNs();
  RunWriters(store.get(), tracer, writers, UINT64_MAX, [&] {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    return (elapsed >= args.seconds &&
            store->durable_stats().checkpoints - stats0.checkpoints >=
                kMinCheckpoints) ||
           elapsed >= kMaxWindowFactor * args.seconds;
  });
  const double window_s = static_cast<double>(NowNs() - start) / 1e9;
  const auto stats = store->durable_stats();
  r.Check(("durable: checkpoint error " + stats.last_checkpoint_error).c_str(),
          1, !stats.last_checkpoint_error.empty());

  LatencyHistogram latency;
  std::vector<LatencyHistogram> slices;
  uint64_t acked = 0;
  size_t live_edges = 0;
  for (const auto& w : writers) {
    if (slices.size() < w->latency_ns.size()) {
      slices.resize(w->latency_ns.size());
    }
    for (size_t i = 0; i < w->latency_ns.size(); ++i) {
      slices[i].Merge(w->latency_ns[i]);
      latency.Merge(w->latency_ns[i]);
    }
    acked += w->acked_edges;
    live_edges += w->live.size();
    r.Check("durable: batch results match the oracle", w->calls,
            w->mismatched);
    r.Check(("durable: writer error " + w->error).c_str(), 1,
            !w->error.empty());
  }
  const uint64_t disk_bytes = ProcessWriteBytes() - disk0;
  r.Timing("durable.batch_latency", latency, "us", 1e3);
  const uint64_t checkpoints = stats.checkpoints - stats0.checkpoints;
  std::vector<double> p50s, p90s;
  for (const LatencyHistogram& h : slices) {
    p50s.push_back(h.Quantile(0.5) / 1e3);
    p90s.push_back(h.Quantile(0.9) / 1e3);
  }
  r.Note("durable: " + std::to_string(checkpoints) +
         " automatic checkpoints, " + std::to_string(live_edges) +
         " live edges at close");
  // The write path waits on fdatasync, so on a shared disk these swing
  // with the neighbours' I/O (4-8x for minutes at a time on a busy
  // virtual machine); they are per-layer figures, not bounded ones.
  const double edges_per_s = static_cast<double>(acked) / window_s;
  r.Note("durable: " + std::to_string(edges_per_s) + " acknowledged edges/s");
  r.Layer("persist.write_edges_per_s", edges_per_s, "1/s");
  r.Layer("persist.write_p50_us", Median(p50s), "us");
  r.Layer("persist.write_p90_us", Median(p90s), "us");

  std::string error;
  ScopedSpan checkpoint(tracer, "persist.Checkpoint");
  const bool checkpointed = store->Checkpoint(&error);
  const double checkpoint_s = static_cast<double>(checkpoint.Finish()) / 1e9;
  r.Check(("durable: explicit checkpoint " + error).c_str(), 1,
          !checkpointed);
  RunWriters(store.get(), nullptr, writers, kTailBatches,
             [] { return false; });
  live_edges = 0;
  for (const auto& w : writers) live_edges += w->live.size();

  // Close, then reopen kRecoveryReps times; every reopen must recover
  // exactly the writers' oracle sets.
  std::vector<double> recovery;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    store.reset();
    ScopedSpan span(tracer, "persist.Recover");
    store = OpenStore(dir);
    recovery.push_back(static_cast<double>(span.Finish()) / 1e9);
    uint64_t missing = 0;
    for (const auto& w : writers) {
      for (uint64_t key : w->live) {
        missing += !store->QueryEdge(static_cast<NodeId>(key >> 32),
                                     static_cast<NodeId>(key));
      }
    }
    r.Check("durable: recovered edges present", live_edges, missing);
    r.Check("durable: recovered edge count", 1,
            store->NumEdges() != live_edges);
  }
  // The timed op is a reopen: ops_per_s counts the edges it restores.
  const double recovery_s = Median(recovery);
  r.Note("durable: reopen min " +
         std::to_string(*std::min_element(recovery.begin(), recovery.end())) +
         " s, median " + std::to_string(recovery_s) + " s, max " +
         std::to_string(*std::max_element(recovery.begin(), recovery.end())) +
         " s");
  r.E2E("ops_per_s", static_cast<double>(live_edges) / recovery_s, "1/s");
  r.E2E("op_p50_us", recovery_s * 1e6, "us");
  r.E2E("bytes_per_edge",
        static_cast<double>(store->MemoryBytes()) /
            static_cast<double>(store->NumEdges()),
        "B");
  r.Layer("persist.recovery_s", recovery_s, "s");
  if (tracer == nullptr) {
    store.reset();
    RemoveDirTree(dir);
    return r;
  }

  const auto& info = store->recovery();
  r.Layer("persist.records_per_sync",
          static_cast<double>(stats.wal.records_appended -
                              stats0.wal.records_appended) /
              static_cast<double>(stats.wal.syncs - stats0.wal.syncs),
          "1/sync");
  r.Layer("persist.wal_bytes_per_edge",
          static_cast<double>(stats.wal.bytes_appended -
                              stats0.wal.bytes_appended) /
              acked,
          "B");
  r.Layer("persist.disk_bytes_per_edge",
          static_cast<double>(disk_bytes) / acked, "B");
  r.Layer("persist.checkpoints", static_cast<double>(checkpoints),
          "count");
  r.Layer("persist.longest_stall_ms", static_cast<double>(latency.max()) / 1e6,
          "ms");
  r.Layer("persist.replayed_records",
          static_cast<double>(info.replayed_records), "count");
  r.Layer("persist.snapshot_edges_loaded",
          static_cast<double>(info.snapshot_edges), "count");
  r.Layer("persist.checkpoint_s", checkpoint_s, "s");
  store.reset();
  RemoveDirTree(dir);
  return r;
}

}  // namespace perfbench
