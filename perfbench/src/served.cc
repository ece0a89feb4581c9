// Workload `served`: cuckoo-sharded behind TcpRespServer with two
// workers, driven closed-loop by two connections (one thread each) that
// pipeline bursts of 16 requests and wait for the replies. Each
// connection owns a private 4096 x 4096 key range, preloaded in set-up,
// so a per-connection oracle predicts every reply. The store is a few MB,
// so parse, dispatch, encode and syscalls dominate the cost. An op is one
// command; its latency is the round trip of its burst. bytes_per_edge is
// the store's footprint after the preload.
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/graph_store.h"
#include "core/sharded_cuckoo_graph.h"
#include "gen.h"
#include "proc_stats.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "redis_sim/resp.h"
#include "server/resp_client.h"
#include "server/tcp_server.h"
#include "socket_calls.h"
#include "workload.h"

namespace perfbench {
namespace {

using cuckoograph::Config;
using cuckoograph::EdgeKey;
using cuckoograph::GraphStore;
using cuckoograph::ShardedCuckooGraph;
using cuckoograph::Span;
using cuckoograph::redis_sim::CommandTable;
using cuckoograph::redis_sim::RegisterGraphCommands;
using cuckoograph::redis_sim::RespConnection;
using cuckoograph::redis_sim::RespType;
using cuckoograph::redis_sim::RespValue;
using cuckoograph::server::RespClient;
using cuckoograph::server::ServerConfig;
using cuckoograph::server::TcpRespServer;

constexpr int kConnections = 2;
constexpr int kWorkers = 2;
constexpr int kBurst = 16;
constexpr NodeId kSources = 4096;
constexpr NodeId kTargets = 4096;
constexpr double kAlpha = 1.5;
constexpr size_t kPreloadArrivals = size_t{1} << 17;  // per connection
constexpr double kWarmupSeconds = 0.5;
// The timed window is cut into kSlices slices; each end-to-end metric is
// the median over the slices of its value within one slice, so a short
// stall elsewhere on the machine moves one slice, not the result.
constexpr int kSlices = 20;
// Traced runs keep a span for one burst or command in kSpanEvery, and
// record each connection's first kReplayCommands requests for the
// socket-free replay.
constexpr uint64_t kSpanEvery = 64;
constexpr size_t kReplayCommands = size_t{1} << 17;

enum class Op { kQuery, kInsert, kDelete };

const char* OpName(Op op) {
  switch (op) {
    case Op::kQuery:
      return "CG.QUERY";
    case Op::kInsert:
      return "CG.INSERT";
    case Op::kDelete:
      return "CG.DEL";
  }
  return "";
}

// One connection's deterministic request stream: 50% query, 30% insert,
// 20% delete over its private source range.
class OpStream {
 public:
  OpStream(uint64_t seed, NodeId base) : rng_(seed), base_(base) {}
  Op Next(Edge* e) {
    e->u = base_ + SkewedPick(rng_, kSources, kAlpha);
    e->v = SkewedPick(rng_, kTargets, kAlpha);
    const double roll = rng_.NextDouble();
    return roll < 0.5 ? Op::kQuery : roll < 0.8 ? Op::kInsert : Op::kDelete;
  }

 private:
  SplitMix64 rng_;
  NodeId base_;
};

// The reply the server must give, applying the op to the oracle set.
long long OracleReply(std::unordered_set<uint64_t>* live, Op op,
                      const Edge& e) {
  const uint64_t key = EdgeKey(e);
  switch (op) {
    case Op::kQuery:
      return live->count(key) != 0;
    case Op::kInsert:
      return live->insert(key).second;
    case Op::kDelete:
      return live->erase(key) != 0;
  }
  return -1;
}

void AppendCommand(std::string* out, Op op, const Edge& e) {
  const std::string name = OpName(op), u = std::to_string(e.u),
                    v = std::to_string(e.v);
  *out += "*3\r\n$" + std::to_string(name.size()) + "\r\n" + name + "\r\n$" +
          std::to_string(u.size()) + "\r\n" + u + "\r\n$" +
          std::to_string(v.size()) + "\r\n" + v + "\r\n";
}

NodeId BaseOf(int connection) {
  return static_cast<NodeId>(connection) * kSources;
}

std::vector<Edge> PreloadEdges(uint64_t seed, int connection) {
  SplitMix64 rng(SubSeed(seed, 10 + connection));
  std::vector<Edge> edges(kPreloadArrivals);
  for (Edge& e : edges) {
    e.u = BaseOf(connection) + SkewedPick(rng, kSources, kAlpha);
    e.v = SkewedPick(rng, kTargets, kAlpha);
  }
  return edges;
}

// Client c and the worker serving it share one CPU: the server hands
// accepted connections to its workers round-robin in connect order, so
// worker c serves client c. A request's two wake-ups then never cross
// CPUs. On a virtual machine a cross-CPU wake-up is an interrupt exit
// whose latency follows the host's load; unpinned, it dominated the
// run-to-run spread. The pairs take the highest-numbered CPUs.
void PinToPairCpu(pid_t tid, int pair) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  const long cpu = cpus - kConnections + pair;
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu), &set);
  sched_setaffinity(tid, sizeof(set), &set);  // best effort
}

// A GraphStore decorator that times every edge op into the store, for
// core.store_ns_per_cmd. Spans are kept only inside a sampled dispatch
// span, so they nest under it.
class TimedStore final : public GraphStore {
 public:
  TimedStore(GraphStore* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  std::string_view name() const override { return inner_->name(); }
  cuckoograph::StoreCapabilities Capabilities() const override {
    return inner_->Capabilities();
  }
  bool InsertEdge(NodeId u, NodeId v) override {
    return Timed([&] { return inner_->InsertEdge(u, v); });
  }
  bool QueryEdge(NodeId u, NodeId v) const override {
    return Timed([&] { return inner_->QueryEdge(u, v); });
  }
  bool DeleteEdge(NodeId u, NodeId v) override {
    return Timed([&] { return inner_->DeleteEdge(u, v); });
  }
  std::unique_ptr<cuckoograph::NeighborCursor> Neighbors(
      NodeId u) const override {
    return inner_->Neighbors(u);
  }
  std::unique_ptr<cuckoograph::NeighborCursor> Nodes() const override {
    return inner_->Nodes();
  }
  size_t OutDegree(NodeId u) const override { return inner_->OutDegree(u); }
  size_t NumEdges() const override { return inner_->NumEdges(); }
  size_t NumNodes() const override { return inner_->NumNodes(); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

  uint64_t ns() const { return ns_.load(std::memory_order_relaxed); }

 private:
  template <typename Fn>
  bool Timed(Fn fn) const {
    ScopedSpan span(InSpan() ? tracer_ : nullptr, "core.store");
    const bool result = fn();
    ns_.fetch_add(span.Finish(), std::memory_order_relaxed);
    return result;
  }
  GraphStore* inner_;
  Tracer* tracer_;
  mutable std::atomic<uint64_t> ns_{0};
};

// Everything set-up builds: the store, the command tables (an outer
// timing table around the real one when traced), the server and the
// connected clients.
struct Served {
  std::unique_ptr<ShardedCuckooGraph> store;
  std::unique_ptr<TimedStore> timed;
  CommandTable table;
  CommandTable outer;  // traced runs only
  std::atomic<uint64_t> dispatch_ns{0};
  std::atomic<uint64_t> dispatched{0};
  std::unique_ptr<TcpRespServer> server;
  std::vector<pid_t> worker_tids;
  std::vector<RespClient> clients;
  std::vector<std::unordered_set<uint64_t>> oracles;
  std::vector<std::vector<Edge>> preload;
};

// Builds a fresh store holding each connection's preload.
std::unique_ptr<ShardedCuckooGraph> PreloadedStore(
    const std::vector<std::vector<Edge>>& preload) {
  auto store = std::make_unique<ShardedCuckooGraph>(Config());
  for (const auto& edges : preload) {
    store->InsertEdges(Span<const Edge>(edges));
  }
  return store;
}

std::unique_ptr<Served> SetUp(uint64_t seed, Tracer* tracer) {
  auto s = std::make_unique<Served>();
  for (int c = 0; c < kConnections; ++c) {
    s->preload.push_back(PreloadEdges(seed, c));
    std::unordered_set<uint64_t> live;
    for (const Edge& e : s->preload.back()) live.insert(EdgeKey(e));
    s->oracles.push_back(std::move(live));
  }
  s->store = PreloadedStore(s->preload);
  const CommandTable* served_table = &s->table;
  if (tracer == nullptr) {
    RegisterGraphCommands(&s->table, s->store.get());
  } else {
    s->timed = std::make_unique<TimedStore>(s->store.get(), tracer);
    RegisterGraphCommands(&s->table, s->timed.get());
    Served* raw = s.get();
    for (Op op : {Op::kQuery, Op::kInsert, Op::kDelete}) {
      s->outer.RegisterCommand(
          OpName(op), 3,
          [raw, tracer](Span<const std::string_view> argv) {
            thread_local uint64_t calls = 0;
            ScopedSpan span(calls++ % kSpanEvery == 0 ? tracer : nullptr,
                            "redis_sim.Dispatch");
            RespValue reply = raw->table.Dispatch(argv);
            raw->dispatch_ns.fetch_add(span.Finish(),
                                       std::memory_order_relaxed);
            raw->dispatched.fetch_add(1, std::memory_order_relaxed);
            return reply;
          });
    }
    served_table = &s->outer;
  }
  ServerConfig config;
  config.num_workers = kWorkers;
  s->server = std::make_unique<TcpRespServer>(config, served_table);
  const std::vector<pid_t> before = ListThreads();
  std::string error;
  if (!s->server->Start(&error)) {
    throw std::runtime_error("server start: " + error);
  }
  for (pid_t tid : ListThreads()) {
    bool existed = false;
    for (pid_t old : before) existed |= old == tid;
    if (!existed) s->worker_tids.push_back(tid);
  }
  for (size_t i = 0; i < s->worker_tids.size(); ++i) {
    PinToPairCpu(s->worker_tids[i], static_cast<int>(i));
  }
  s->clients.resize(kConnections);
  for (RespClient& client : s->clients) {
    if (!client.Connect("127.0.0.1", s->server->port(), &error)) {
      throw std::runtime_error("connect: " + error);
    }
  }
  return s;
}

// Per-connection load-generator state, written by its thread.
struct Conn {
  std::atomic<uint64_t> completed{0};  // commands answered
  std::atomic<pid_t> tid{0};
  // Per-request latency by window slice (index kSlices = outside the
  // window, not kept).
  std::vector<LatencyHistogram> latency_ns{kSlices};
  uint64_t checked = 0, mismatched = 0;
  std::string error;
  // Traced runs: the first kReplayCommands requests, burst by burst,
  // and the replies the oracle expected for them.
  std::vector<std::string> replay_bursts;
  std::string replay_expected;
};

void ConnLoop(Served* s, int c, uint64_t seed, Tracer* tracer,
              const std::atomic<int>* slice,
              const std::atomic<bool>* stop, Conn* conn) {
  conn->tid.store(CurrentTid());
  PinToPairCpu(CurrentTid(), c);
  RespClient& client = s->clients[c];
  std::unordered_set<uint64_t>& live = s->oracles[c];
  OpStream ops(SubSeed(seed, 20 + c), BaseOf(c));
  std::string burst;
  long long expected[kBurst];
  uint64_t bursts = 0;
  try {
    while (!stop->load(std::memory_order_relaxed)) {
      burst.clear();
      for (int k = 0; k < kBurst; ++k) {
        Edge e;
        const Op op = ops.Next(&e);
        AppendCommand(&burst, op, e);
        expected[k] = OracleReply(&live, op, e);
      }
      const int timed_slice = slice->load(std::memory_order_relaxed);
      ScopedSpan span(bursts++ % kSpanEvery == 0 ? tracer : nullptr,
                      "loadgen.burst");
      if (!client.SendRaw(burst)) throw std::runtime_error("send failed");
      for (int k = 0; k < kBurst; ++k) {
        const RespValue reply = client.ReadReply();
        ++conn->checked;
        if (reply.type != RespType::kInteger || reply.integer != expected[k]) {
          ++conn->mismatched;
        }
      }
      const uint64_t rtt = span.Finish();
      if (timed_slice < kSlices) {
        conn->latency_ns[timed_slice].Record(rtt, kBurst);
      }
      conn->completed.fetch_add(kBurst, std::memory_order_relaxed);
      if (tracer != nullptr && conn->checked <= kReplayCommands) {
        conn->replay_bursts.push_back(burst);
        for (long long x : expected) {
          conn->replay_expected += x ? ":1\r\n" : ":0\r\n";
        }
      }
    }
  } catch (const std::exception& e) {
    conn->error = e.what();
  }
}

uint64_t TotalCompleted(const std::vector<std::unique_ptr<Conn>>& conns) {
  uint64_t total = 0;
  for (const auto& c : conns) total += c->completed.load();
  return total;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

ThreadCounters ReadCounters(const std::vector<pid_t>& tids, Results* r) {
  ThreadCounters c;
  if (!ReadThreadsCounters(tids, &c)) r->Check("served: read /proc", 1, 1);
  for (pid_t tid : tids) {
    const SocketCalls calls = SocketCallsOf(tid);
    c.syscr += calls.recv;
    c.syscw += calls.sendmsg;
  }
  return c;
}

// Replays the recorded requests through RespConnection::Feed on a fresh
// preloaded store, without sockets; returns ns per command.
double ReplayFeed(const Served& s,
                  const std::vector<std::unique_ptr<Conn>>& conns,
                  Results* r) {
  auto store = PreloadedStore(s.preload);
  CommandTable table;
  RegisterGraphCommands(&table, store.get());
  uint64_t ns = 0, commands = 0;
  for (const auto& conn : conns) {
    RespConnection connection(&table);
    std::string out;
    for (const std::string& burst : conn->replay_bursts) {
      const uint64_t t0 = NowNs();
      connection.Feed(burst, &out);
      ns += NowNs() - t0;
    }
    commands += conn->replay_bursts.size() * kBurst;
    r->Check("served: replayed replies", conn->replay_bursts.size() * kBurst,
             out != conn->replay_expected
                 ? conn->replay_bursts.size() * kBurst
                 : 0);
  }
  return commands ? static_cast<double>(ns) / commands : 0;
}

}  // namespace

Results RunServed(const RunArgs& args, Tracer* tracer) {
  Results r;
  std::unique_ptr<Served> s =
      RepeatedSetup(&r, [&] { return SetUp(args.seed, tracer); });
  const double preload_bytes_per_edge =
      static_cast<double>(s->store->MemoryBytes()) /
      static_cast<double>(s->store->NumEdges());

  std::atomic<int> slice{kSlices};
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Conn>());
    threads.emplace_back(ConnLoop, s.get(), c, args.seed, tracer, &slice,
                         &stop, conns.back().get());
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  std::vector<pid_t> client_tids;
  for (const auto& c : conns) client_tids.push_back(c->tid.load());

  const auto read_path0 = s->store->read_path_stats();
  const auto server0 = s->server->stats();
  const ThreadCounters workers0 = ReadCounters(s->worker_tids, &r);
  const ThreadCounters clients0 = ReadCounters(client_tids, &r);
  const uint64_t store_ns0 = s->timed ? s->timed->ns() : 0;
  const uint64_t dispatch_ns0 = s->dispatch_ns.load();
  const uint64_t dispatched0 = s->dispatched.load();
  const uint64_t start_ns = NowNs();
  const uint64_t completed0 = TotalCompleted(conns);
  std::vector<double> slice_rates;
  uint64_t prev_ns = start_ns, prev_done = completed0;
  for (int i = 1; i <= kSlices; ++i) {
    slice.store(i - 1);
    const uint64_t due = start_ns + static_cast<uint64_t>(
                                        args.seconds * 1e9 * i / kSlices);
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    const uint64_t now = NowNs(), done = TotalCompleted(conns);
    slice_rates.push_back(static_cast<double>(done - prev_done) /
                          Seconds(now - prev_ns));
    prev_ns = now;
    prev_done = done;
  }
  slice.store(kSlices);
  const uint64_t window_cmds = prev_done - completed0;
  const ThreadCounters workers = ReadCounters(s->worker_tids, &r) - workers0;
  const ThreadCounters clients = ReadCounters(client_tids, &r) - clients0;
  const auto server1 = s->server->stats();
  const auto read_path1 = s->store->read_path_stats();
  const uint64_t store_ns = (s->timed ? s->timed->ns() : 0) - store_ns0;
  const uint64_t dispatch_ns = s->dispatch_ns.load() - dispatch_ns0;
  const uint64_t dispatched = s->dispatched.load() - dispatched0;
  stop.store(true);
  for (std::thread& t : threads) t.join();

  LatencyHistogram latency;
  std::vector<double> p50s, p90s;
  for (int i = 0; i < kSlices; ++i) {
    LatencyHistogram in_slice;
    for (const auto& c : conns) in_slice.Merge(c->latency_ns[i]);
    latency.Merge(in_slice);
    p50s.push_back(in_slice.Quantile(0.5) / 1e3);
    p90s.push_back(in_slice.Quantile(0.9) / 1e3);
  }

  for (const auto& c : conns) {
    r.Check("served: replies match the oracle", c->checked, c->mismatched);
    r.Check(("served: connection error " + c->error).c_str(), 1,
            !c->error.empty());
  }
  r.Timing("served.request_latency", latency, "us", 1e3);
  r.E2E("ops_per_s", Median(slice_rates), "1/s");
  r.E2E("op_p50_us", Median(p50s), "us");
  r.E2E("bytes_per_edge", preload_bytes_per_edge, "B");
  r.Layer("server.cmd_p90_us", Median(p90s), "us");
  if (tracer == nullptr) return r;

  const double cmds = static_cast<double>(window_cmds);
  const uint64_t optimistic = read_path1.optimistic - read_path0.optimistic;
  const uint64_t locked = read_path1.locked - read_path0.locked;
  r.Layer("core.optimistic_read_frac",
          static_cast<double>(optimistic) /
              static_cast<double>(optimistic + locked),
          "ratio");
  r.Layer("core.store_ns_per_cmd", static_cast<double>(store_ns) / dispatched,
          "ns");
  r.Layer("redis_sim.dispatch_self_ns_per_cmd",
          static_cast<double>(dispatch_ns - store_ns) / dispatched, "ns");
  const double feed_ns = ReplayFeed(*s, conns, &r);
  r.Layer("redis_sim.feed_ns_per_cmd", feed_ns, "ns");
  r.Layer("redis_sim.dispatch_errors",
          static_cast<double>(s->table.dispatch_errors() +
                              s->outer.dispatch_errors()),
          "count");
  const double server_cpu = static_cast<double>(workers.cpu_ns) / cmds;
  r.Layer("server.cpu_ns_per_cmd", server_cpu, "ns");
  r.Layer("server.transport_ns_per_cmd", server_cpu - feed_ns, "ns");
  r.Layer("server.read_syscalls_per_cmd",
          static_cast<double>(workers.syscr) / cmds, "1/cmd");
  r.Layer("server.write_syscalls_per_cmd",
          static_cast<double>(workers.syscw) / cmds, "1/cmd");
  r.Layer("server.ctx_switches_per_cmd",
          static_cast<double>(workers.voluntary_ctx +
                              workers.involuntary_ctx) /
              cmds,
          "1/cmd");
  r.Layer("server.bytes_out_per_cmd",
          static_cast<double>(server1.bytes_out - server0.bytes_out) / cmds,
          "B");
  r.Layer("loadgen.cpu_ns_per_cmd", static_cast<double>(clients.cpu_ns) / cmds,
          "ns");
  return r;
}

}  // namespace perfbench
