// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/graph_ops.h"

#include <cmath>
#include <queue>
#include <utility>

#include "base/check.h"
#include "base/parallel.h"
#include "base/telemetry.h"
#include "sparse/csr_builder.h"

namespace skipnode {

std::vector<int> Degrees(int num_nodes, const EdgeList& edges) {
  std::vector<int> degree(num_nodes, 0);
  for (const auto& [u, v] : edges) {
    SKIPNODE_CHECK(u >= 0 && u < num_nodes && v >= 0 && v < num_nodes);
    degree[u] += 1;
    degree[v] += 1;
  }
  return degree;
}

CsrMatrix NormalizedAdjacency(int num_nodes, EdgeList edges,
                              const std::vector<bool>* keep_node) {
  const ScopedTimer timer("sparse.adjacency_normalize", /*items=*/num_nodes);
  SKIPNODE_CHECK(keep_node == nullptr ||
                 static_cast<int>(keep_node->size()) == num_nodes);
  const auto kept = [keep_node](int i) {
    return keep_node == nullptr || (*keep_node)[static_cast<size_t>(i)];
  };
  // The A+I pattern: both directions of every edge plus the kept
  // self-loops, streamed twice (count, fill).
  CsrBuilder builder(num_nodes, num_nodes);
  for (const auto& [u, v] : edges) {
    builder.CountEntry(u);
    builder.CountEntry(v);
    SKIPNODE_CHECK(kept(u) && kept(v));
  }
  for (int i = 0; i < num_nodes; ++i) {
    if (kept(i)) builder.CountEntry(i);
  }
  builder.FinishCounting();
  for (const auto& [u, v] : edges) {
    builder.AddPatternEntry(u, v);
    builder.AddPatternEntry(v, u);
  }
  for (int i = 0; i < num_nodes; ++i) {
    if (kept(i)) builder.AddPatternEntry(i, i);
  }
  // Freed before the per-row merge, which holds the builder's column buffer
  // and the compacted columns together.
  EdgeList().swap(edges);
  builder.FinalizePattern();

  // A kept row holds its distinct neighbours plus the self-loop, so its
  // entry count is d + 1; a dropped row is empty and is never read. A
  // per-node map with no cross-element accumulation: safe to chunk across
  // threads without perturbing any value.
  std::vector<float> inv_sqrt(static_cast<size_t>(num_nodes), 0.0f);
  ParallelFor(
      0, num_nodes,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int entries = builder.FinalRowNnz(static_cast<int>(i));
          if (entries > 0) {
            inv_sqrt[static_cast<size_t>(i)] =
                1.0f / std::sqrt(static_cast<float>(entries));
          }
        }
      },
      /*work_per_element=*/1);
  return builder.BuildWithValues(
      [&](int r, int c) { return inv_sqrt[r] * inv_sqrt[c]; });
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
  return NormalizedAdjacency(a_hat.rows(), std::move(kept));
}

CsrMatrix DropNodeAdjacency(const CsrMatrix& a_hat, double drop_rate,
                            Rng& rng) {
  SKIPNODE_CHECK(drop_rate >= 0.0 && drop_rate < 1.0);
  const int n = a_hat.rows();
  std::vector<bool> keep(n, true);
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(drop_rate)) keep[i] = false;
  }
  EdgeList kept;
  ForEachEdge(a_hat, [&](int u, int v) {
    if (keep[u] && keep[v]) kept.emplace_back(u, v);
  });
  return NormalizedAdjacency(n, std::move(kept), &keep);
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
