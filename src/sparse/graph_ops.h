// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Graph-structure operators: adjacency normalisation (the GCN re-normalisation
// trick), the undirected edge walk over an A_hat pattern, per-epoch edge
// sampling (DropEdge) and node down-sampling (DropNode), degree computation,
// and connected components. The pattern of A_hat is the one topology every
// Graph exposes (DESIGN §13); an undirected edge list {u, v} with u != v
// (each listed edge standing for both directions) is only construction input
// for NormalizedAdjacency and Degrees.

#ifndef SKIPNODE_SPARSE_GRAPH_OPS_H_
#define SKIPNODE_SPARSE_GRAPH_OPS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "sparse/csr_matrix.h"

namespace skipnode {

using EdgeList = std::vector<std::pair<int, int>>;

// Degree of each node counting each undirected edge once per endpoint
// (self-loops excluded; the normalisation adds them separately).
std::vector<int> Degrees(int num_nodes, const EdgeList& edges);

// GCN re-normalised adjacency: A_hat = (D+I)^{-1/2} (A+I) (D+I)^{-1/2}.
// Duplicate listed edges count twice in D and sum in A (the COO-era
// semantics, preserved bit for bit by the streaming builder).
CsrMatrix NormalizedAdjacency(int num_nodes, const EdgeList& edges);

// Visits each undirected edge of a symmetric pattern (any A_hat) once as
// fn(u, v) with u < v, in row-major order; the diagonal is skipped.
template <typename Fn>
void ForEachEdge(const CsrMatrix& pattern, Fn&& fn) {
  const std::vector<int>& cols = pattern.col_idx();
  for (int u = 0; u < pattern.rows(); ++u) {
    const int64_t end = pattern.RowEnd(u);
    for (int64_t e = pattern.RowBegin(u); e < end; ++e) {
      const int v = cols[static_cast<size_t>(e)];
      if (v > u) fn(u, v);
    }
  }
}

// The ForEachEdge walk as a list, for callers that index edges.
EdgeList UndirectedEdges(const CsrMatrix& pattern);

// DropEdge: keeps each undirected edge of `a_hat`'s pattern independently
// with probability (1 - drop_rate), one Bernoulli draw per edge in ForEachEdge
// order, and returns the re-normalised adjacency of the sampled graph — the
// per-epoch renormalisation is exactly the cost Table 8 measures.
CsrMatrix DropEdgeAdjacency(const CsrMatrix& a_hat, double drop_rate,
                            Rng& rng);

// DropNode (Do et al. 2021 variant): removes `drop_rate * N` nodes uniformly
// (one draw per node); removed nodes lose all incident edges *and* their
// self-loop, then the remaining subgraph of `a_hat`'s pattern is
// re-normalised. Removed node rows of A_hat are all zero, so their features
// vanish after propagation — matching the instability of DropNode in deep
// stacks observed in the paper (Table 7).
CsrMatrix DropNodeAdjacency(const CsrMatrix& a_hat, double drop_rate,
                            Rng& rng);

// Connected components via BFS over an adjacency pattern (values and
// self-loops are irrelevant to connectivity); returns per-node component id
// in [0, k), numbered in order of each component's smallest node.
std::vector<int> ConnectedComponents(const CsrMatrix& adjacency);

}  // namespace skipnode

#endif  // SKIPNODE_SPARSE_GRAPH_OPS_H_
