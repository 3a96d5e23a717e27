// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/graph_ops.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "tensor/ops.h"
#include "testing/coo_matrix.h"

namespace skipnode {
namespace {

// Path graph 0-1-2-3.
EdgeList PathEdges() { return {{0, 1}, {1, 2}, {2, 3}}; }

void ExpectIdenticalCsr(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (int r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(a.RowBegin(r), b.RowBegin(r)) << "row " << r;
  }
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());  // Exact float equality.
}

TEST(GraphOpsTest, Degrees) {
  const std::vector<int> degree = Degrees(4, PathEdges());
  EXPECT_EQ(degree, (std::vector<int>{1, 2, 2, 1}));
}

TEST(GraphOpsTest, NormalizedAdjacencyValues) {
  // For edge (u, v): value = 1/sqrt((d_u+1)(d_v+1)); diagonal = 1/(d_u+1).
  CsrMatrix a_hat = NormalizedAdjacency(4, PathEdges());
  Matrix dense = a_hat.ToDense();
  EXPECT_NEAR(dense.at(0, 0), 1.0f / 2.0f, 1e-6f);
  EXPECT_NEAR(dense.at(1, 1), 1.0f / 3.0f, 1e-6f);
  EXPECT_NEAR(dense.at(0, 1), 1.0f / std::sqrt(6.0f), 1e-6f);
  EXPECT_TRUE(a_hat.IsSymmetric());
}

TEST(GraphOpsTest, NormalizedAdjacencyHasEigenvalueOne) {
  // v_i = sqrt(d_i + 1) is an eigenvector with eigenvalue exactly 1.
  Rng rng(1);
  const EdgeList edges = ErdosRenyi(30, 0.15, rng);
  CsrMatrix a_hat = NormalizedAdjacency(30, edges);
  const std::vector<int> degree = Degrees(30, edges);
  Matrix v(30, 1);
  for (int i = 0; i < 30; ++i) {
    v.at(i, 0) = std::sqrt(static_cast<float>(degree[i]) + 1.0f);
  }
  EXPECT_LT(MaxAbsDiff(a_hat.Multiply(v), v), 1e-4f);
}

TEST(GraphOpsTest, NormalizedAdjacencySpectralRadiusAtMostOne) {
  Rng rng(2);
  const EdgeList edges = ErdosRenyi(25, 0.2, rng);
  CsrMatrix a_hat = NormalizedAdjacency(25, edges);
  Matrix x = Matrix::RandomNormal(25, 1, rng);
  float prev = x.Norm();
  for (int i = 0; i < 20; ++i) {
    x = a_hat.Multiply(x);
    const float cur = x.Norm();
    EXPECT_LE(cur, prev * (1.0f + 1e-5f));
    prev = cur;
  }
}

TEST(GraphOpsTest, ForEachEdgeWalksUpperTriangleRowMajor) {
  // Listed out of order and partly reversed; the walk reports each edge
  // once as (u, v) with u < v, row by row, and never the diagonal.
  const CsrMatrix a_hat =
      NormalizedAdjacency(4, {{2, 3}, {1, 0}, {2, 1}, {3, 0}});
  EXPECT_EQ(UndirectedEdges(a_hat),
            (EdgeList{{0, 1}, {0, 3}, {1, 2}, {2, 3}}));
  // ErdosRenyi lists its edges in exactly that order.
  Rng rng(8);
  const EdgeList edges = ErdosRenyi(50, 0.2, rng);
  EXPECT_EQ(UndirectedEdges(NormalizedAdjacency(50, edges)), edges);
}

TEST(GraphOpsTest, DropEdgeZeroRateKeepsEverything) {
  Rng rng(3);
  CsrMatrix full = NormalizedAdjacency(4, PathEdges());
  CsrMatrix sampled = DropEdgeAdjacency(full, 0.0, rng);
  ExpectIdenticalCsr(full, sampled);
}

TEST(GraphOpsTest, DropEdgeRemovesRoughlyRate) {
  Rng rng(4);
  const EdgeList edges = ErdosRenyi(60, 0.3, rng);
  const CsrMatrix a_hat = NormalizedAdjacency(60, edges);
  const double kRate = 0.5;
  double kept_total = 0.0;
  const int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    CsrMatrix sampled = DropEdgeAdjacency(a_hat, kRate, rng);
    // nnz = 2 * kept_edges + 60 self loops.
    kept_total += (sampled.nnz() - 60) / 2.0;
  }
  const double mean_kept = kept_total / kTrials;
  EXPECT_NEAR(mean_kept / edges.size(), 1.0 - kRate, 0.05);
}

TEST(GraphOpsTest, DropEdgeResultIsRenormalized) {
  Rng rng(5);
  const EdgeList edges = ErdosRenyi(40, 0.2, rng);
  CsrMatrix sampled =
      DropEdgeAdjacency(NormalizedAdjacency(40, edges), 0.4, rng);
  EXPECT_TRUE(sampled.IsSymmetric());
  // Every kept node has its self-loop, so all diagonal entries are positive
  // and the eigenvalue-1 property holds on the sampled graph.
  Matrix dense = sampled.ToDense();
  for (int i = 0; i < 40; ++i) EXPECT_GT(dense.at(i, i), 0.0f);
}

TEST(GraphOpsTest, DropNodeIsolatesDroppedNodes) {
  Rng rng(6);
  const EdgeList edges = ErdosRenyi(50, 0.2, rng);
  CsrMatrix sampled =
      DropNodeAdjacency(NormalizedAdjacency(50, edges), 0.5, rng);
  Matrix dense = sampled.ToDense();
  int zero_rows = 0;
  for (int i = 0; i < 50; ++i) {
    double row_total = 0.0;
    for (int j = 0; j < 50; ++j) row_total += std::fabs(dense.at(i, j));
    if (row_total == 0.0) ++zero_rows;
  }
  // About half the nodes should be fully isolated (row of zeros).
  EXPECT_GT(zero_rows, 10);
  EXPECT_LT(zero_rows, 40);
  EXPECT_TRUE(sampled.IsSymmetric());
}

// DropEdge pairs its draws with the edges in row-major order (ErdosRenyi's
// own order) and renormalises what it keeps: both pinned bit for bit against
// the test's own draws and the COO reference normalisation.
TEST(GraphOpsTest, DropEdgeMatchesCooReferenceBitwise) {
  const int n = 80;
  for (const uint64_t seed : {11u, 12u, 13u}) {
    Rng graph_rng(seed);
    const EdgeList edges = ErdosRenyi(n, 0.1, graph_rng);
    Rng rng(seed + 100);
    const CsrMatrix sampled =
        DropEdgeAdjacency(NormalizedAdjacency(n, edges), 0.3, rng);

    Rng draws(seed + 100);
    EdgeList kept;
    for (const auto& edge : edges) {
      if (!draws.Bernoulli(0.3)) kept.push_back(edge);
    }
    ExpectIdenticalCsr(sampled, testing::CooReferenceNormalized(n, kept));
    EXPECT_EQ(rng.Next(), draws.Next()) << "one draw per edge";
  }
}

// DropNode draws once per node and renormalises the induced subgraph of the
// pattern, pinned the same way.
TEST(GraphOpsTest, DropNodeMatchesCooReferenceBitwise) {
  const int n = 80;
  for (const uint64_t seed : {21u, 22u, 23u}) {
    Rng graph_rng(seed);
    const EdgeList edges = ErdosRenyi(n, 0.1, graph_rng);
    Rng rng(seed + 100);
    const CsrMatrix sampled =
        DropNodeAdjacency(NormalizedAdjacency(n, edges), 0.4, rng);

    Rng draws(seed + 100);
    std::vector<bool> keep(n);
    for (int i = 0; i < n; ++i) keep[i] = !draws.Bernoulli(0.4);
    EdgeList kept;
    for (const auto& [u, v] : edges) {
      if (keep[u] && keep[v]) kept.emplace_back(u, v);
    }
    ExpectIdenticalCsr(sampled,
                       testing::CooReferenceNormalized(n, kept, &keep));
    EXPECT_EQ(rng.Next(), draws.Next()) << "one draw per node";
  }
}

TEST(GraphOpsTest, ConnectedComponentsPathPlusIsolated) {
  // Path 0-1-2-3 plus isolated node 4 and pair 5-6.
  EdgeList edges = PathEdges();
  edges.emplace_back(5, 6);
  const std::vector<int> comp =
      ConnectedComponents(NormalizedAdjacency(7, edges));
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[4]);
  EXPECT_NE(comp[4], comp[5]);
  EXPECT_EQ(comp[5], comp[6]);
  // Ids are dense starting at 0.
  int max_id = 0;
  for (const int c : comp) max_id = std::max(max_id, c);
  EXPECT_EQ(max_id, 2);
}

}  // namespace
}  // namespace skipnode
