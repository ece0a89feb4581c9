// Shared workload generation for the two Redis-protocol figures, so the
// in-process fig17 and the over-socket served figure emit the same CSV
// schema (Insertion / Query / Deletion / Mixed(zipf) columns) and their
// numbers diff directly: same Zipf shapes, same oracle-checked reply
// protocol, different transport.
#ifndef CUCKOOGRAPH_BENCH_SERVED_WORKLOAD_H_
#define CUCKOOGRAPH_BENCH_SERVED_WORKLOAD_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace cuckoograph::bench {

// The four phase columns both protocol benches report, in order.
inline const std::vector<std::string>& ServedSchemaColumns() {
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
inline NodeId ZipfPick(SplitMix64& rng, NodeId n, double alpha) {
  const double r = std::pow(rng.NextDouble(), alpha);
  const NodeId id = static_cast<NodeId>(r * static_cast<double>(n));
  return id >= n ? n - 1 : id;
}

// `n` Zipf-skewed edges with sources in [base, base + range) and values
// in [0, values). Deterministic per seed, so a connection's stream can
// be regenerated for oracle replay.
inline std::vector<Edge> MakeZipfEdges(uint64_t seed, size_t n, NodeId base,
                                       NodeId range, NodeId values,
                                       double alpha) {
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
inline std::vector<MixedOp> MakeZipfMix(uint64_t seed, size_t n, NodeId base,
                                        NodeId range, NodeId values,
                                        double alpha, double read_frac) {
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
inline const char* CommandFor(OpKind kind) {
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
// no other client touches the same source range — which is how both
// benches partition their key space.
inline long long OracleReply(std::unordered_set<uint64_t>* live, OpKind kind,
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

}  // namespace cuckoograph::bench

#endif  // CUCKOOGRAPH_BENCH_SERVED_WORKLOAD_H_
