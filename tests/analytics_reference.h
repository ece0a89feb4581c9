// Naive reference models of the analytics kernels, shared by the kernel
// tests (analytics_kernels_test.cc) and the thread-budget sweep
// (parallel_kernels_test.cc). Each model recomputes its kernel's contract
// from the definition over an ordered-map adjacency built straight from
// the arrival stream: no CsrSnapshot, no dense ids, no code shared with
// src/analytics/, so agreement is independent evidence for store,
// snapshot and kernel together.
#ifndef CUCKOOGRAPH_TESTS_ANALYTICS_REFERENCE_H_
#define CUCKOOGRAPH_TESTS_ANALYTICS_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "analytics/csr_snapshot.h"
#include "analytics/kernel.h"
#include "common/types.h"
#include "gtest/gtest.h"

namespace cuckoograph::reference {

using analytics::kUnreached;

struct RefGraph {
  std::vector<NodeId> nodes;                  // sorted unique endpoints
  std::map<NodeId, std::vector<NodeId>> adj;  // distinct successors, sorted
  std::set<uint64_t> edges;                   // EdgeKey set
  std::map<uint64_t, uint64_t> weight;        // EdgeKey -> expected weight
};

// `weighted`: duplicate arrivals accumulate weight (the weighted stores'
// contract); otherwise every edge weighs 1.
inline RefGraph BuildRef(const std::vector<Edge>& stream, bool weighted) {
  RefGraph ref;
  for (const Edge& e : stream) {
    ref.nodes.push_back(e.u);
    ref.nodes.push_back(e.v);
    if (ref.edges.insert(EdgeKey(e)).second) {
      ref.adj[e.u].push_back(e.v);
      ref.weight[EdgeKey(e)] = 1;
    } else if (weighted) {
      ++ref.weight[EdgeKey(e)];  // duplicate arrival accumulates
    }
  }
  std::sort(ref.nodes.begin(), ref.nodes.end());
  ref.nodes.erase(std::unique(ref.nodes.begin(), ref.nodes.end()),
                  ref.nodes.end());
  for (auto& [u, vs] : ref.adj) std::sort(vs.begin(), vs.end());
  return ref;
}

inline const std::vector<NodeId>& SuccessorsOf(const RefGraph& ref,
                                               NodeId u) {
  static const std::vector<NodeId> kNone;
  const auto it = ref.adj.find(u);
  return it == ref.adj.end() ? kNone : it->second;
}

inline bool HasEdge(const RefGraph& ref, NodeId u, NodeId v) {
  return ref.edges.count(EdgeKey(Edge{u, v})) != 0;
}

// Hop distance from the nearest of `sources` (absent ids ignored).
inline std::map<NodeId, double> NaiveBfs(const RefGraph& ref,
                                         const std::vector<NodeId>& sources) {
  std::map<NodeId, double> dist;
  for (const NodeId n : ref.nodes) dist[n] = kUnreached;
  std::queue<NodeId> queue;
  for (const NodeId s : sources) {
    if (dist.count(s) == 0 || dist[s] == 0.0) continue;
    dist[s] = 0.0;
    queue.push(s);
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop();
    for (const NodeId v : SuccessorsOf(ref, u)) {
      if (dist[v] != kUnreached) continue;
      dist[v] = dist[u] + 1.0;
      queue.push(v);
    }
  }
  return dist;
}

// Weighted distance from the nearest of `sources`: O(V^2) Dijkstra that
// repeatedly settles the nearest unsettled vertex.
inline std::map<NodeId, double> NaiveSssp(
    const RefGraph& ref, const std::vector<NodeId>& sources) {
  std::map<NodeId, double> dist;
  for (const NodeId n : ref.nodes) dist[n] = kUnreached;
  for (const NodeId s : sources) {
    if (dist.count(s) != 0) dist[s] = 0.0;
  }
  std::set<NodeId> settled;
  while (true) {
    NodeId best = 0;
    double best_dist = kUnreached;
    for (const auto& [n, d] : dist) {
      if (settled.count(n) == 0 && d < best_dist) {
        best = n;
        best_dist = d;
      }
    }
    if (best_dist == kUnreached) break;
    settled.insert(best);
    for (const NodeId v : SuccessorsOf(ref, best)) {
      const double w =
          static_cast<double>(ref.weight.at(EdgeKey(Edge{best, v})));
      dist[v] = std::min(dist[v], best_dist + w);
    }
  }
  return dist;
}

// Directed 3-cycles s -> v -> w -> s over distinct vertices.
inline uint64_t NaiveTriangles(const RefGraph& ref, NodeId s) {
  uint64_t count = 0;
  for (const NodeId v : SuccessorsOf(ref, s)) {
    if (v == s) continue;
    for (const NodeId w : SuccessorsOf(ref, v)) {
      if (w == s || w == v) continue;
      if (HasEdge(ref, w, s)) ++count;
    }
  }
  return count;
}

// Successor lists by position in ref.nodes, for the all-pairs models.
inline std::vector<std::vector<size_t>> IndexAdjacency(const RefGraph& ref) {
  const auto index = [&ref](NodeId id) {
    return static_cast<size_t>(
        std::lower_bound(ref.nodes.begin(), ref.nodes.end(), id) -
        ref.nodes.begin());
  };
  std::vector<std::vector<size_t>> adj(ref.nodes.size());
  for (size_t i = 0; i < ref.nodes.size(); ++i) {
    for (const NodeId v : SuccessorsOf(ref, ref.nodes[i])) {
      adj[i].push_back(index(v));
    }
  }
  return adj;
}

// The SCC partition from its definition: per-vertex reachability closures
// (one DFS per vertex), then each vertex maps to the smallest id it is
// mutually reachable with — one representative per component.
inline std::map<NodeId, NodeId> NaiveSccRepresentatives(const RefGraph& ref) {
  const std::vector<std::vector<size_t>> adj = IndexAdjacency(ref);
  const size_t n = adj.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (size_t s = 0; s < n; ++s) {
    std::vector<size_t> stack{s};
    reach[s][s] = true;
    while (!stack.empty()) {
      const size_t u = stack.back();
      stack.pop_back();
      for (const size_t v : adj[u]) {
        if (reach[s][v]) continue;
        reach[s][v] = true;
        stack.push_back(v);
      }
    }
  }
  std::map<NodeId, NodeId> rep;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b <= a; ++b) {
      if (reach[a][b] && reach[b][a]) {
        rep[ref.nodes[a]] = ref.nodes[b];
        break;
      }
    }
  }
  return rep;
}

// `iters` rounds of power iteration: uniform teleport, dangling mass
// spread uniformly.
inline std::map<NodeId, double> NaivePageRank(const RefGraph& ref,
                                              size_t iters, double d) {
  const size_t n = ref.nodes.size();
  std::map<NodeId, double> rank;
  for (const NodeId v : ref.nodes) rank[v] = 1.0 / static_cast<double>(n);
  for (size_t it = 0; it < iters; ++it) {
    double dangling = 0.0;
    for (const NodeId u : ref.nodes) {
      if (SuccessorsOf(ref, u).empty()) dangling += rank[u];
    }
    std::map<NodeId, double> next;
    const double base = (1.0 - d + d * dangling) / static_cast<double>(n);
    for (const NodeId v : ref.nodes) next[v] = base;
    for (const NodeId u : ref.nodes) {
      const std::vector<NodeId>& succ = SuccessorsOf(ref, u);
      if (succ.empty()) continue;
      const double share = d * rank[u] / static_cast<double>(succ.size());
      for (const NodeId v : succ) next[v] += share;
    }
    rank = next;
  }
  return rank;
}

// Hop distances and shortest-path counts from position `s` to every
// position.
inline void NaivePathsFrom(const std::vector<std::vector<size_t>>& adj,
                           size_t s, std::vector<double>& dist,
                           std::vector<double>& sigma) {
  dist.assign(adj.size(), kUnreached);
  sigma.assign(adj.size(), 0.0);
  dist[s] = 0.0;
  sigma[s] = 1.0;
  std::queue<size_t> queue;
  queue.push(s);
  while (!queue.empty()) {
    const size_t u = queue.front();
    queue.pop();
    for (const size_t v : adj[u]) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1.0;
        queue.push(v);
      }
      if (dist[v] == dist[u] + 1.0) sigma[v] += sigma[u];
    }
  }
}

// Betweenness by the pair-dependency definition, no Brandes accumulation:
// bc[v] = sum over pivots s and targets t, s != v != t, of
// sigma_st(v) / sigma_st = sigma_sv * sigma_vt / sigma_st when v lies on
// a shortest s-t path. Empty `pivots` means every vertex (the exact
// score); absent and repeated pivots are ignored, as in the kernel.
inline std::map<NodeId, double> NaiveBetweenness(
    const RefGraph& ref, const std::vector<NodeId>& pivots) {
  const std::vector<std::vector<size_t>> adj = IndexAdjacency(ref);
  const size_t n = adj.size();
  std::set<size_t> pivot_set;
  for (const NodeId p : pivots) {
    const auto it = std::lower_bound(ref.nodes.begin(), ref.nodes.end(), p);
    if (it != ref.nodes.end() && *it == p) {
      pivot_set.insert(static_cast<size_t>(it - ref.nodes.begin()));
    }
  }
  if (pivots.empty()) {
    for (size_t i = 0; i < n; ++i) pivot_set.insert(i);
  }
  std::map<size_t, std::vector<double>> dist_s, sigma_s;
  for (const size_t s : pivot_set) {
    NaivePathsFrom(adj, s, dist_s[s], sigma_s[s]);
  }
  std::map<NodeId, double> bc;
  std::vector<double> dist_v, sigma_v;
  for (size_t v = 0; v < n; ++v) {
    double score = 0.0;
    NaivePathsFrom(adj, v, dist_v, sigma_v);
    for (const size_t s : pivot_set) {
      if (s == v) continue;
      const std::vector<double>& ds = dist_s.at(s);
      const std::vector<double>& ss = sigma_s.at(s);
      for (size_t t = 0; t < n; ++t) {
        if (t == s || t == v || ss[t] == 0.0) continue;
        if (ds[v] + dist_v[t] == ds[t]) score += ss[v] * sigma_v[t] / ss[t];
      }
    }
    bc[ref.nodes[v]] = score;
  }
  return bc;
}

// Ordered pairs of distinct successors of u joined by an edge, over
// deg(u) * (deg(u) - 1).
inline double NaiveLcc(const RefGraph& ref, NodeId u) {
  const std::vector<NodeId>& succ = SuccessorsOf(ref, u);
  if (succ.size() < 2) return 0.0;
  uint64_t links = 0;
  for (const NodeId v : succ) {
    for (const NodeId w : succ) {
      if (v != w && HasEdge(ref, v, w)) ++links;
    }
  }
  return static_cast<double>(links) /
         (static_cast<double>(succ.size()) *
          static_cast<double>(succ.size() - 1));
}

// Checks a CC result against the partition NaiveSccRepresentatives
// computed: two vertices share a label iff they share a representative,
// and the aggregate counts the components.
inline void ExpectSccPartition(const analytics::CsrSnapshot& graph,
                               const analytics::KernelResult& result,
                               const std::map<NodeId, NodeId>& reps) {
  const auto label = [&](NodeId id) {
    return result.per_node[graph.ToDense(id)];
  };
  std::map<NodeId, double> rep_label;  // representative -> its label
  std::set<double> labels;
  for (const auto& [id, rep] : reps) {
    if (id == rep) {
      rep_label[rep] = label(rep);
      labels.insert(label(rep));
    }
  }
  EXPECT_EQ(labels.size(), rep_label.size())
      << "two components share a label";
  for (const auto& [id, rep] : reps) {
    EXPECT_EQ(label(id), rep_label.at(rep)) << id;
  }
  EXPECT_EQ(result.aggregate, rep_label.size());
}

}  // namespace cuckoograph::reference

#endif  // CUCKOOGRAPH_TESTS_ANALYTICS_REFERENCE_H_
