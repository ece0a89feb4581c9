// Workload `ingest`: the paper's headline. A single-threaded CuckooGraph
// with the default Config takes a power-law stream of 5M arrivals over
// 200k vertices, then answers a lookup for every arrival plus as many
// absent edges, then deletes every distinct edge. The store grows past
// the last-level cache, so probe, kick and TRANSFORMATION memory traffic
// shows in the timings. The cycle runs on a fresh store until the run's
// time is up (at least once). An op is one store call: ops_per_s pools
// the three phases, op_p50_us is the median of one call in kSampleEvery.
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/cuckoo_graph.h"
#include "gen.h"
#include "proc_stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using cuckoograph::Config;
using cuckoograph::CuckooGraph;
using cuckoograph::GraphStats;

constexpr size_t kArrivals = 5'000'000;
constexpr NodeId kVertices = 200'000;
constexpr double kAlpha = 1.8;
// Every run times one op in kSampleEvery (op_p50_us and the per-op
// percentiles); traced runs also keep a span for one in kSpanEvery, so
// the span buffer stays bounded.
constexpr size_t kSampleEvery = 16;
constexpr size_t kSpanEvery = 1024;

struct Input {
  std::vector<Edge> stream;
  // One edge per arrival that is never inserted: a stream-distributed
  // source with a target above every generated id, so the probe reaches
  // the vertex and misses among its neighbours.
  std::vector<Edge> absent;
  // The first arrival of each distinct edge, in arrival order: the
  // dedup-set oracle, and the delete phase's input.
  std::vector<Edge> distinct;
};

std::unique_ptr<Input> MakeInput(uint64_t seed) {
  auto in = std::make_unique<Input>();
  in->stream = PowerLawStream(SubSeed(seed, 1), kArrivals, kVertices, kAlpha);
  SplitMix64 rng(SubSeed(seed, 2));
  in->absent.resize(kArrivals);
  for (Edge& e : in->absent) {
    e.u = SkewedPick(rng, kVertices, kAlpha);
    e.v = kVertices + rng.NextBelow(kVertices);
  }
  // Sort (edge, arrival index) packed into one word: 18 + 18 bits of
  // endpoints above a 23-bit index. The first index of each run of equal
  // edges is that edge's first arrival.
  static_assert(kVertices <= (1u << 18) && kArrivals <= (1u << 23));
  std::vector<uint64_t> keyed(kArrivals);
  for (size_t i = 0; i < kArrivals; ++i) {
    const Edge& e = in->stream[i];
    keyed[i] = ((uint64_t{e.u} << 18 | e.v) << 23) | i;
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint8_t> first(kArrivals, 0);
  for (size_t i = 0; i < kArrivals; ++i) {
    if (i == 0 || (keyed[i] >> 23) != (keyed[i - 1] >> 23)) {
      first[keyed[i] & ((1u << 23) - 1)] = 1;
    }
  }
  for (size_t i = 0; i < kArrivals; ++i) {
    if (first[i]) in->distinct.push_back(in->stream[i]);
  }
  return in;
}

struct RepTimes {
  double insert_s = 0, query_s = 0, delete_s = 0;
  size_t peak_bytes = 0;
};

// Per-op samples, kept over every rep, and the counters of the last rep.
struct Samples {
  LatencyHistogram insert_ns, hit_ns, miss_ns, delete_ns;
  GraphStats after_insert, after_delete;
  uint64_t rss_delta = 0;
};

// Calls `op(i)` for i in [0, n), timing one call in kSampleEvery into
// `h`; the sampled calls get a span when `tracer` is set.
template <typename Op>
void SampledLoop(size_t n, Tracer* tracer, const char* name,
                 LatencyHistogram* h, Op op) {
  for (size_t i = 0; i < n; ++i) {
    if (i % kSampleEvery != 0) {
      op(i);
      continue;
    }
    ScopedSpan span(i % kSpanEvery == 0 ? tracer : nullptr, name);
    op(i);
    h->Record(span.Finish());
  }
}

// One insert / query / delete cycle on a fresh store.
RepTimes RunRep(const Input& in, Results* r, Tracer* tracer, Samples* out) {
  const size_t n = in.stream.size(), d = in.distinct.size();
  RepTimes t;
  malloc_trim(0);
  const uint64_t rss0 = VmRssBytes();
  auto g = std::make_unique<CuckooGraph>(Config());

  size_t inserted = 0;
  {
    ScopedSpan phase(tracer, "ingest.insert");
    SampledLoop(n, tracer, "core.InsertEdge", &out->insert_ns, [&](size_t i) {
      inserted += g->InsertEdge(in.stream[i].u, in.stream[i].v);
    });
    t.insert_s = static_cast<double>(phase.Finish()) / 1e9;
  }
  t.peak_bytes = g->MemoryBytes();
  out->rss_delta = VmRssBytes() - rss0;
  out->after_insert = g->stats();
  r->Check("ingest: InsertEdge returned new", n, inserted > d ? inserted - d
                                                              : d - inserted);
  r->Check("ingest: NumEdges after inserts", 1, g->NumEdges() != d);

  size_t hits = 0, false_hits = 0;
  {
    ScopedSpan phase(tracer, "ingest.query");
    for (size_t i = 0; i < n; ++i) {
      const Edge& hit = in.stream[i];
      const Edge& miss = in.absent[i];
      if (i % kSampleEvery != 0) {
        hits += g->QueryEdge(hit.u, hit.v);
        false_hits += g->QueryEdge(miss.u, miss.v);
        continue;
      }
      Tracer* span_tracer = i % kSpanEvery == 0 ? tracer : nullptr;
      {
        ScopedSpan op(span_tracer, "core.QueryEdge.hit");
        hits += g->QueryEdge(hit.u, hit.v);
        out->hit_ns.Record(op.Finish());
      }
      ScopedSpan op(span_tracer, "core.QueryEdge.miss");
      false_hits += g->QueryEdge(miss.u, miss.v);
      out->miss_ns.Record(op.Finish());
    }
    t.query_s = static_cast<double>(phase.Finish()) / 1e9;
  }
  r->Check("ingest: QueryEdge hits", n, n - hits);
  r->Check("ingest: QueryEdge misses", n, false_hits);

  size_t deleted = 0;
  {
    ScopedSpan phase(tracer, "ingest.delete");
    SampledLoop(d, tracer, "core.DeleteEdge", &out->delete_ns, [&](size_t i) {
      deleted += g->DeleteEdge(in.distinct[i].u, in.distinct[i].v);
    });
    t.delete_s = static_cast<double>(phase.Finish()) / 1e9;
  }
  out->after_delete = g->stats();
  r->Check("ingest: DeleteEdge returned present", d, d - deleted);
  r->Check("ingest: store empty after deletes", 1, g->NumEdges() != 0);
  return t;
}

}  // namespace

Results RunIngest(const RunArgs& args, Tracer* tracer) {
  Results r;
  const std::unique_ptr<Input> in =
      RepeatedSetup(&r, [&] { return MakeInput(args.seed); });
  const double n = static_cast<double>(in->stream.size());
  const double d = static_cast<double>(in->distinct.size());
  r.Note("ingest: " + std::to_string(in->stream.size()) + " arrivals, " +
         std::to_string(in->distinct.size()) + " distinct edges");

  RepTimes total;
  Samples samples;
  const int reps = RepeatFor(args.seconds, 1, [&] {
    const RepTimes t = RunRep(*in, &r, tracer, &samples);
    total.insert_s += t.insert_s;
    total.query_s += t.query_s;
    total.delete_s += t.delete_s;
    total.peak_bytes = std::max(total.peak_bytes, t.peak_bytes);
  });
  r.Note("ingest: " + std::to_string(reps) + " reps");
  // An op is one store call; the rates pool every rep.
  const double calls = reps * (n + 2 * n + d);
  r.E2E("ops_per_s",
        calls / (total.insert_s + total.query_s + total.delete_s), "1/s");
  LatencyHistogram all;
  for (const LatencyHistogram* h :
       {&samples.insert_ns, &samples.hit_ns, &samples.miss_ns,
        &samples.delete_ns}) {
    all.Merge(*h);
  }
  r.Timing("core.call", all, "ns", 1);
  r.E2E("op_p50_us", all.Quantile(0.5) / 1e3, "us");
  r.E2E("bytes_per_edge", static_cast<double>(total.peak_bytes) / d, "B");

  r.Layer("core.insert_mops", reps * n / total.insert_s / 1e6, "Mop/s");
  r.Layer("core.query_mops", reps * 2 * n / total.query_s / 1e6, "Mop/s");
  r.Layer("core.delete_mops", reps * d / total.delete_s / 1e6, "Mop/s");
  r.Timing("core.InsertEdge", samples.insert_ns, "ns", 1);
  r.Timing("core.QueryEdge.hit", samples.hit_ns, "ns", 1);
  r.Timing("core.QueryEdge.miss", samples.miss_ns, "ns", 1);
  r.Timing("core.DeleteEdge", samples.delete_ns, "ns", 1);
  r.Layer("core.insert_ns_p50", samples.insert_ns.Quantile(0.5), "ns");
  r.Layer("core.insert_ns_p9999", samples.insert_ns.Quantile(0.9999), "ns");
  r.Layer("core.query_hit_ns_p50", samples.hit_ns.Quantile(0.5), "ns");
  r.Layer("core.query_miss_ns_p50", samples.miss_ns.Quantile(0.5), "ns");
  r.Layer("core.delete_ns_p50", samples.delete_ns.Quantile(0.5), "ns");
  // The counters of the last rep's store; each rep replays the same
  // input into a fresh store, so every rep counts the same.
  const GraphStats& s = samples.after_insert;
  r.Layer("core.kicks_per_insert",
          static_cast<double>(s.l.kicks + s.s.kicks) / n, "1/op");
  r.Layer("core.rehash_moves_per_edge",
          static_cast<double>(s.l.rehash_moves + s.s.rehash_moves) / d,
          "1/edge");
  r.Layer("core.transformations", static_cast<double>(s.transformations),
          "count");
  r.Layer("core.denylist_parks", static_cast<double>(s.denylist_parks),
          "count");
  r.Layer("core.expansions", static_cast<double>(s.l.expansions +
                                                 s.s.expansions),
          "count");
  r.Layer("core.merges", static_cast<double>(s.l.merges + s.s.merges),
          "count");
  r.Layer("core.reverse_transformations",
          static_cast<double>(samples.after_delete.reverse_transformations),
          "count");
  r.Layer("core.rss_bytes_per_edge",
          static_cast<double>(samples.rss_delta) / d, "B");
  return r;
}

}  // namespace perfbench
