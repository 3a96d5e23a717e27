// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The parallel transposed-SpMM gathers (DESIGN §7/§10). Contract under test:
// MultiplyTransposed, unmasked and masked, over the cached transpose plan
// must be bitwise identical to the pre-plan *serial scatter* kernels —
// reimplemented verbatim below as the reference — at 1, 4, and 8 threads,
// for asymmetric rectangular matrices (plan materialised) and for symmetric
// normalised adjacencies (forward-CSR alias fast path). Every Â the library
// builds must take that alias: a materialised plan would store 12 more bytes
// per entry.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "sparse/csr_matrix.h"
#include "sparse/graph_ops.h"
#include "tensor/ops.h"
#include "testing/coo_matrix.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

// The retired serial kernel, verbatim: scatters row r of `dense` into output
// row col_idx[e], accumulating each output row's contributions in increasing
// source-row order.
Matrix SerialScatterTransposed(const CsrMatrix& a, const Matrix& dense) {
  Matrix out(a.cols(), dense.cols());
  const int d = dense.cols();
  for (int r = 0; r < a.rows(); ++r) {
    const float* src = dense.row(r);
    for (int64_t e = a.RowBegin(r); e < a.RowEnd(r); ++e) {
      const size_t se = static_cast<size_t>(e);
      const float w = a.values()[se];
      float* dst = out.row(a.col_idx()[se]);
      for (int j = 0; j < d; ++j) dst[j] += w * src[j];
    }
  }
  return out;
}

Matrix SerialScatterTransposedMasked(const CsrMatrix& a, const Matrix& dense,
                                     const std::vector<uint8_t>& skip_rows) {
  Matrix out(a.cols(), dense.cols());
  const int d = dense.cols();
  for (int r = 0; r < a.rows(); ++r) {
    if (skip_rows[r]) continue;
    const float* src = dense.row(r);
    for (int64_t e = a.RowBegin(r); e < a.RowEnd(r); ++e) {
      const size_t se = static_cast<size_t>(e);
      const float w = a.values()[se];
      float* dst = out.row(a.col_idx()[se]);
      for (int j = 0; j < d; ++j) dst[j] += w * src[j];
    }
  }
  return out;
}

// Rectangular (rows != cols) random matrix with a few heavy rows, so the
// nnz-balanced partition sees skew and the plan (not the alias) is used.
CsrMatrix AsymmetricRectangular(int rows, int cols, Rng& rng) {
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
  for (int r = 0; r < rows; ++r) {
    const int degree = r % 17 == 0 ? 40 : 1 + static_cast<int>(rng.UniformInt(5));
    for (int k = 0; k < degree; ++k) {
      coords.push_back({r, static_cast<int>(rng.UniformInt(cols))});
      values.push_back(rng.UniformFloat(-2.0f, 2.0f));
    }
  }
  return testing::CsrFromCoo(rows, cols, std::move(coords), std::move(values));
}

// A symmetric normalised adjacency, the production shape of every backward
// Aᵀ·g in the repo.
CsrMatrix SymmetricAdjacency(int n, Rng& rng) {
  EdgeList edges;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      const int j = static_cast<int>(rng.UniformInt(n));
      if (j != i) edges.push_back({i, j});
    }
  }
  return NormalizedAdjacency(n, edges);
}

std::vector<uint8_t> AlternatingMask(int rows) {
  std::vector<uint8_t> mask(rows, 0);
  for (int r = 0; r < rows; ++r) mask[r] = (r % 3 == 0) ? 1 : 0;
  return mask;
}

class SpmmTransposedParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreadCount(0); }

  // Returns the pool dispatches of the 4-thread products, for the callers
  // whose inputs are large enough to fan out.
  int64_t ExpectBitwiseAtAllThreadCounts(const CsrMatrix& a) {
    Rng rng(77);
    const Matrix g = Matrix::Random(a.rows(), 9, rng);
    const std::vector<uint8_t> mask = AlternatingMask(a.rows());
    const Matrix ref = SerialScatterTransposed(a, g);
    const Matrix ref_masked = SerialScatterTransposedMasked(a, g, mask);
    int64_t dispatches_at_4 = 0;
    for (const int threads : {1, 4, 8}) {
      SetParallelThreadCount(threads);
      Matrix out, out_masked;
      const int64_t dispatches = testing::PoolDispatches([&] {
        out = a.MultiplyTransposed(g);
        out_masked = a.MultiplyTransposed(g, mask);
      });
      if (threads == 4) dispatches_at_4 = dispatches;
      // Bitwise: exact zero difference, not approximately zero.
      EXPECT_EQ(MaxAbsDiff(ref, out), 0.0f) << "threads=" << threads;
      EXPECT_EQ(MaxAbsDiff(ref_masked, out_masked), 0.0f)
          << "masked threads=" << threads;
    }
    return dispatches_at_4;
  }
};

TEST_F(SpmmTransposedParallelTest, AsymmetricRectangularMatchesSerialScatter) {
  Rng rng(5);
  const CsrMatrix a = AsymmetricRectangular(20300, 9100, rng);
  ASSERT_FALSE(a.transpose_plan().symmetric_alias);
  EXPECT_GT(ExpectBitwiseAtAllThreadCounts(a), 0);
}

// Every Â the library builds, named: NormalizedAdjacency over a random edge
// list, each classic dataset's lazy Â, two streamed ones (30k nodes, so
// their products exceed the pool's grain), and the per-epoch re-normalised
// operators of DropEdge and DropNode.
std::vector<std::pair<std::string, std::shared_ptr<const CsrMatrix>>>
LibraryAdjacencies() {
  std::vector<std::pair<std::string, std::shared_ptr<const CsrMatrix>>> out;
  Rng rng(6);
  out.emplace_back("NormalizedAdjacency",
                   std::make_shared<const CsrMatrix>(
                       SymmetricAdjacency(150, rng)));
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    const double scale = spec.num_nodes > 1000 ? 0.1 : 1.0;
    out.emplace_back(spec.name, BuildDataset(spec, scale, /*seed=*/3)
                                    .normalized_adjacency());
  }
  // A size override sends a classic spec, and "synth" always, through the
  // streaming DC-SBM build.
  for (const char* name : {"cora_like", "synth"}) {
    DatasetRequest request;
    request.name = name;
    request.seed = 4;
    request.nodes = 30000;
    out.emplace_back(
        std::string(name) + "@30000",
        DatasetRegistry::Global().Build(request).normalized_adjacency());
  }
  for (const size_t base : {size_t{1}, out.size() - 1}) {
    const std::string name = out[base].first;
    const std::shared_ptr<const CsrMatrix> a_hat = out[base].second;
    out.emplace_back("DropEdge " + name,
                     std::make_shared<const CsrMatrix>(
                         DropEdgeAdjacency(*a_hat, 0.3, rng)));
    out.emplace_back("DropNode " + name,
                     std::make_shared<const CsrMatrix>(
                         DropNodeAdjacency(*a_hat, 0.3, rng)));
  }
  return out;
}

TEST_F(SpmmTransposedParallelTest, SymmetricAdjacencyMatchesSerialScatter) {
  int64_t dispatches_at_4 = 0;
  for (const auto& [name, a] : LibraryAdjacencies()) {
    SCOPED_TRACE(name);
    // Â is exactly symmetric (inv_sqrt[u] * inv_sqrt[v] commutes bitwise), so
    // the plan must alias the forward CSR instead of materialising an index
    // set.
    const CsrMatrix::TransposePlan& plan = a->transpose_plan();
    ASSERT_TRUE(plan.symmetric_alias);
    EXPECT_TRUE(plan.row_ptr.empty());
    EXPECT_TRUE(plan.src_row.empty());
    EXPECT_TRUE(plan.value_perm.empty());
    dispatches_at_4 += ExpectBitwiseAtAllThreadCounts(*a);
  }
  EXPECT_GT(dispatches_at_4, 0);
}

TEST_F(SpmmTransposedParallelTest, SymmetricAliasTransposeEqualsForward) {
  Rng rng(7);
  const CsrMatrix a = SymmetricAdjacency(120, rng);
  Rng data_rng(8);
  const Matrix x = Matrix::Random(a.rows(), 6, data_rng);
  // For symmetric A, Aᵀx = Ax; with the alias both run the same gather, so
  // the results must agree bitwise.
  EXPECT_EQ(MaxAbsDiff(a.Multiply(x), a.MultiplyTransposed(x)), 0.0f);
}

TEST_F(SpmmTransposedParallelTest, NearSymmetricValuesDoNotAlias) {
  // Mirrored values differing below IsSymmetric's default tolerance must
  // still defeat the alias: the fast path requires *exact* equality, or the
  // gather would read A[c][r] bits that differ from the scatter's A[r][c].
  const CsrMatrix a = testing::CsrFromCoo(
      2, 2, {{0, 1}, {1, 0}}, {1.0f, 1.0f + 1.1920929e-7f});
  ASSERT_FALSE(a.transpose_plan().symmetric_alias);
  ExpectBitwiseAtAllThreadCounts(a);
}

TEST_F(SpmmTransposedParallelTest, MaskedMatchesZeroedRowsUnderThreads) {
  Rng rng(9);
  const CsrMatrix a = AsymmetricRectangular(28000, 12000, rng);
  Rng data_rng(10);
  const Matrix g = Matrix::Random(a.rows(), 5, data_rng);
  const std::vector<uint8_t> mask = AlternatingMask(a.rows());
  Matrix g_zeroed = g;
  for (int r = 0; r < g.rows(); ++r) {
    if (!mask[r]) continue;
    for (int j = 0; j < g.cols(); ++j) g_zeroed(r, j) = 0.0f;
  }
  for (const int threads : {1, 4, 8}) {
    SetParallelThreadCount(threads);
    Matrix zeroed, masked;
    const int64_t dispatches = testing::PoolDispatches([&] {
      zeroed = a.MultiplyTransposed(g_zeroed);
      masked = a.MultiplyTransposed(g, mask);
    });
    if (threads > 1) {
      EXPECT_GT(dispatches, 0) << "threads=" << threads;
    }
    EXPECT_EQ(MaxAbsDiff(zeroed, masked), 0.0f) << "threads=" << threads;
  }
}

TEST_F(SpmmTransposedParallelTest, EmptyAndAllSkippedEdgeCases) {
  Rng rng(11);
  const CsrMatrix a = AsymmetricRectangular(30, 12, rng);
  Rng data_rng(12);
  const Matrix g = Matrix::Random(30, 4, data_rng);
  SetParallelThreadCount(4);
  const std::vector<uint8_t> all(30, 1);
  EXPECT_EQ(MaxAbsDiff(a.MultiplyTransposed(g, all), Matrix(12, 4)),
            0.0f);
  const CsrMatrix empty;
  const Matrix none = empty.MultiplyTransposed(Matrix(0, 4));
  EXPECT_EQ(none.rows(), 0);
  EXPECT_EQ(none.cols(), 4);
}

}  // namespace
}  // namespace skipnode
