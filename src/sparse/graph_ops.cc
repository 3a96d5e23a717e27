// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/graph_ops.h"

#include <cmath>
#include <queue>

#include "base/check.h"
#include "base/parallel.h"
#include "base/telemetry.h"
#include "sparse/csr_builder.h"

namespace skipnode {
namespace {

// Builds (D+I)^{-1/2}(A+I)(D+I)^{-1/2} over the subgraph induced by
// `keep_node` (nullptr keeps everything). Nodes outside the subgraph get
// all-zero rows and columns. `for_each_edge(fn)` streams the undirected
// edges as fn(u, v) and must replay the same sequence when called again.
//
// Streams both directions of every kept edge through CsrBuilder twice (count
// then fill) instead of materialising the symmetric COO triplet vector; the
// float math is unchanged from the COO path — degrees are raw symmetric-entry
// counts (duplicate edges counted), inv_sqrt is computed per node once, and
// each entry's value is the same two-factor product — so the result is
// bitwise identical.
template <typename EdgeStream>
CsrMatrix NormalizeImpl(int num_nodes, const EdgeStream& for_each_edge,
                        const std::vector<bool>* keep_node) {
  const ScopedTimer timer("sparse.adjacency_normalize", /*items=*/num_nodes);
  CsrBuilder builder(num_nodes, num_nodes);
  const auto node_kept = [keep_node](int64_t i) {
    return keep_node == nullptr || (*keep_node)[static_cast<size_t>(i)];
  };
  for_each_edge([&](int u, int v) {
    if (!node_kept(u) || !node_kept(v)) return;
    builder.CountEntry(u);
    builder.CountEntry(v);
  });

  // Degrees of the (possibly sub-sampled) simple graph, read from the raw
  // counts before the self-loop entries join them. Per-node map with no
  // cross-element accumulation: safe to chunk across threads without
  // perturbing any value.
  std::vector<float> inv_sqrt(num_nodes, 0.0f);
  ParallelFor(
      0, num_nodes,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          if (node_kept(i)) {
            const int64_t d = builder.RowCount(static_cast<int>(i)) + 1;
            inv_sqrt[i] = 1.0f / std::sqrt(static_cast<float>(d));
          }
        }
      },
      /*min_per_thread=*/1 << 13);

  for (int i = 0; i < num_nodes; ++i) {
    if (node_kept(i)) builder.CountEntry(i);
  }
  builder.FinishCounting();

  for_each_edge([&](int u, int v) {
    if (!node_kept(u) || !node_kept(v)) return;
    builder.AddEntry(u, v, inv_sqrt[u] * inv_sqrt[v]);
    builder.AddEntry(v, u, inv_sqrt[v] * inv_sqrt[u]);
  });
  for (int i = 0; i < num_nodes; ++i) {
    if (node_kept(i)) builder.AddEntry(i, i, inv_sqrt[i] * inv_sqrt[i]);
  }
  return builder.Build();
}

}  // namespace

std::vector<int> Degrees(int num_nodes, const EdgeList& edges) {
  std::vector<int> degree(num_nodes, 0);
  for (const auto& [u, v] : edges) {
    SKIPNODE_CHECK(u >= 0 && u < num_nodes && v >= 0 && v < num_nodes);
    degree[u] += 1;
    degree[v] += 1;
  }
  return degree;
}

CsrMatrix NormalizedAdjacency(int num_nodes, const EdgeList& edges) {
  const auto walk = [&edges](auto&& fn) {
    for (const auto& [u, v] : edges) fn(u, v);
  };
  return NormalizeImpl(num_nodes, walk, nullptr);
}

EdgeList UndirectedEdges(const CsrMatrix& pattern) {
  EdgeList edges;
  ForEachEdge(pattern, [&](int u, int v) { edges.emplace_back(u, v); });
  return edges;
}

CsrMatrix DropEdgeAdjacency(const CsrMatrix& a_hat, double drop_rate,
                            Rng& rng) {
  SKIPNODE_CHECK(drop_rate >= 0.0 && drop_rate < 1.0);
  EdgeList kept;
  kept.reserve(static_cast<size_t>(a_hat.nnz() / 2));
  ForEachEdge(a_hat, [&](int u, int v) {
    if (!rng.Bernoulli(drop_rate)) kept.emplace_back(u, v);
  });
  return NormalizedAdjacency(a_hat.rows(), kept);
}

CsrMatrix DropNodeAdjacency(const CsrMatrix& a_hat, double drop_rate,
                            Rng& rng) {
  SKIPNODE_CHECK(drop_rate >= 0.0 && drop_rate < 1.0);
  const int n = a_hat.rows();
  std::vector<bool> keep(n, true);
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(drop_rate)) keep[i] = false;
  }
  const auto walk = [&a_hat](auto&& fn) { ForEachEdge(a_hat, fn); };
  return NormalizeImpl(n, walk, &keep);
}

std::vector<int> ConnectedComponents(const CsrMatrix& adjacency) {
  const int n = adjacency.rows();
  SKIPNODE_CHECK(adjacency.cols() == n);
  const std::vector<int>& cols = adjacency.col_idx();
  std::vector<int> component(n, -1);
  int next_id = 0;
  std::queue<int> frontier;
  for (int start = 0; start < n; ++start) {
    if (component[start] >= 0) continue;
    component[start] = next_id;
    frontier.push(start);
    while (!frontier.empty()) {
      const int u = frontier.front();
      frontier.pop();
      const int64_t end = adjacency.RowEnd(u);
      for (int64_t e = adjacency.RowBegin(u); e < end; ++e) {
        const int v = cols[static_cast<size_t>(e)];
        if (component[v] < 0) {
          component[v] = next_id;
          frontier.push(v);
        }
      }
    }
    ++next_id;
  }
  return component;
}

}  // namespace skipnode
