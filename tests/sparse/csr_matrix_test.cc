// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/csr_matrix.h"

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/simd.h"
#include "tensor/ops.h"
#include "testing/coo_matrix.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

CsrMatrix SmallMatrix() {
  // [[0, 2, 0],
  //  [1, 0, 3],
  //  [0, 0, 4]]
  return testing::CsrFromCoo(3, 3, {{0, 1}, {1, 0}, {1, 2}, {2, 2}},
                            {2, 1, 3, 4});
}

TEST(CsrMatrixTest, CooBuildBasics) {
  CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.RowNnz(0), 1);
  EXPECT_EQ(m.RowNnz(1), 2);
  EXPECT_EQ(m.RowNnz(2), 1);
}

TEST(CsrMatrixTest, ToDenseMatchesLayout) {
  Matrix dense = SmallMatrix().ToDense();
  EXPECT_LT(MaxAbsDiff(dense, Matrix(3, 3, {0, 2, 0, 1, 0, 3, 0, 0, 4})),
            1e-6f);
}

TEST(CsrMatrixTest, DuplicateCoordinatesAreSummed) {
  CsrMatrix m = testing::CsrFromCoo(2, 2, {{0, 0}, {0, 0}, {1, 1}},
                                   {1.0f, 2.5f, 4.0f});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_FLOAT_EQ(m.ToDense().at(0, 0), 3.5f);
}

TEST(CsrMatrixTest, UnsortedInputIsSorted) {
  CsrMatrix m = testing::CsrFromCoo(2, 3, {{1, 2}, {0, 1}, {1, 0}},
                                   {3, 1, 2});
  const std::vector<int>& cols = m.col_idx();
  EXPECT_EQ(cols[0], 1);  // Row 0.
  EXPECT_EQ(cols[1], 0);  // Row 1 sorted by column.
  EXPECT_EQ(cols[2], 2);
}

TEST(CsrMatrixTest, MultiplyMatchesDense) {
  Rng rng(1);
  CsrMatrix sparse = SmallMatrix();
  Matrix x = Matrix::Random(3, 5, rng);
  EXPECT_LT(MaxAbsDiff(sparse.Multiply(x), MatMul(sparse.ToDense(), x)),
            1e-5f);
}

TEST(CsrMatrixTest, MultiplyTransposedMatchesDense) {
  Rng rng(2);
  CsrMatrix sparse = SmallMatrix();
  Matrix x = Matrix::Random(3, 4, rng);
  EXPECT_LT(MaxAbsDiff(sparse.MultiplyTransposed(x),
                       MatMul(Transpose(sparse.ToDense()), x)),
            1e-5f);
}

TEST(CsrMatrixTest, MultiplyAccumulateAdds) {
  Rng rng(3);
  CsrMatrix sparse = SmallMatrix();
  Matrix x = Matrix::Random(3, 2, rng);
  Matrix out = Matrix::Ones(3, 2);
  sparse.MultiplyAccumulate(x, out);
  EXPECT_LT(MaxAbsDiff(out, Add(sparse.Multiply(x), Matrix::Ones(3, 2))),
            1e-5f);
}

TEST(CsrMatrixTest, RowSums) {
  Matrix sums = SmallMatrix().RowSums();
  EXPECT_FLOAT_EQ(sums.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(sums.at(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(sums.at(2, 0), 4.0f);
}

TEST(CsrMatrixTest, RowSumsAccumulateInDouble) {
  // Pins the header contract: each row sums in double and rounds to float
  // once at the end. 1e8 + 1 is exactly representable in double but rounds
  // to 1e8 in float, so a float-order accumulation of {1e8, 1, -1e8} would
  // return 0 while the double accumulation returns exactly 1.
  CsrMatrix m = testing::CsrFromCoo(1, 3, {{0, 0}, {0, 1}, {0, 2}},
                                   {1e8f, 1.0f, -1e8f});
  EXPECT_EQ(m.RowSums().at(0, 0), 1.0f);
}

TEST(CsrMatrixTest, TransposePlanMatchesExplicitTranspose) {
  // An asymmetric rectangular matrix, including a duplicate coordinate so
  // the merged-entry path is covered.
  CsrMatrix m = testing::CsrFromCoo(
      3, 4, {{0, 2}, {0, 0}, {1, 2}, {2, 3}, {2, 0}, {2, 0}},
      {5.0f, 1.0f, 2.0f, 7.0f, 3.0f, 4.0f});
  const CsrMatrix::TransposePlan& plan = m.transpose_plan();
  ASSERT_FALSE(plan.symmetric_alias);

  // Reference transpose: swap every stored (r, c, v) and rebuild via the
  // same COO helper used everywhere else.
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
  for (int r = 0; r < m.rows(); ++r) {
    for (int64_t e = m.RowBegin(r); e < m.RowEnd(r); ++e) {
      const size_t se = static_cast<size_t>(e);
      coords.push_back({m.col_idx()[se], r});
      values.push_back(m.values()[se]);
    }
  }
  CsrMatrix t = testing::CsrFromCoo(m.cols(), m.rows(), std::move(coords),
                                   std::move(values));

  ASSERT_EQ(plan.row_ptr.size(), t.row_offsets().size());
  for (size_t c = 0; c < plan.row_ptr.size(); ++c) {
    EXPECT_EQ(plan.row_ptr[c], t.row_offsets()[c]) << "offset " << c;
  }
  EXPECT_EQ(plan.src_row, t.col_idx());
  ASSERT_EQ(plan.value_perm.size(), t.values().size());
  for (size_t e = 0; e < plan.value_perm.size(); ++e) {
    EXPECT_EQ(m.values()[static_cast<size_t>(plan.value_perm[e])],
              t.values()[e])
        << "entry " << e;
  }
}

TEST(CsrMatrixTest, TransposePlanAliasesExactlySymmetricMatrices) {
  CsrMatrix sym = testing::CsrFromCoo(
      3, 3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 2}},
      {0.5f, 0.5f, 0.25f, 0.25f, 1.0f});
  const CsrMatrix::TransposePlan& plan = sym.transpose_plan();
  EXPECT_TRUE(plan.symmetric_alias);
  // No second index set materialised.
  EXPECT_TRUE(plan.row_ptr.empty());
  EXPECT_TRUE(plan.src_row.empty());
  EXPECT_TRUE(plan.value_perm.empty());
  Rng rng(21);
  Matrix x = Matrix::Random(3, 4, rng);
  EXPECT_EQ(MaxAbsDiff(sym.Multiply(x), sym.MultiplyTransposed(x)), 0.0f);
}

TEST(CsrMatrixTest, TransposePlanSharedByCopies) {
  CsrMatrix m = SmallMatrix();
  const CsrMatrix::TransposePlan& plan = m.transpose_plan();
  CsrMatrix copy = m;
  // Copies share the cache cell, so the plan is built once per matrix.
  EXPECT_EQ(&copy.transpose_plan(), &plan);
}

TEST(CsrMatrixTest, SymmetryDetection) {
  EXPECT_FALSE(SmallMatrix().IsSymmetric());
  CsrMatrix sym = testing::CsrFromCoo(2, 2, {{0, 1}, {1, 0}, {0, 0}},
                                     {2, 2, 1});
  EXPECT_TRUE(sym.IsSymmetric());
  CsrMatrix asym_values = testing::CsrFromCoo(2, 2, {{0, 1}, {1, 0}},
                                             {2, 3});
  EXPECT_FALSE(asym_values.IsSymmetric());
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

// A dense operand above the gather's 4 MB prefetch threshold: the
// prefetching loop must leave every bit where the serial loop puts it —
// forward and transposed, masked or not, at 1 and 4 threads.
TEST(CsrMatrixTest, ProductsAboveThePrefetchThresholdMatchTheSerialLoop) {
  const int n = 40000, d = 32;  // 40000 x 32 floats = 5.12 MB.
  Rng rng(21);
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
  for (int r = 0; r < n; ++r) {
    for (int k = 0; k < 6; ++k) {
      coords.emplace_back(r, static_cast<int>(rng.UniformInt(n)));
      values.push_back(static_cast<float>(rng.Uniform()) - 0.5f);
    }
  }
  const CsrMatrix a = testing::CsrFromCoo(n, n, coords, values);
  const Matrix x = Matrix::Random(n, d, rng);
  std::vector<uint8_t> mask(n);
  for (int r = 0; r < n; ++r) mask[r] = r % 3 == 0;

  // Output row i adds its entries in entry order; the transposed product
  // scatters source rows in ascending order, the order its gather keeps.
  Matrix forward(n, d), forward_masked(n, d), transposed(n, d),
      transposed_masked(n, d);
  for (int r = 0; r < n; ++r) {
    for (int64_t e = a.RowBegin(r); e < a.RowEnd(r); ++e) {
      const int c = a.col_idx()[e];
      const float w = a.values()[e];
      simd::Axpy(w, x.row(c), forward.row(r), d);
      if (!mask[r]) simd::Axpy(w, x.row(c), forward_masked.row(r), d);
      simd::Axpy(w, x.row(r), transposed.row(c), d);
      if (!mask[r]) simd::Axpy(w, x.row(r), transposed_masked.row(c), d);
    }
  }
  for (const int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    Matrix out, masked_out(n, d), out_t, masked_out_t;
    const int64_t dispatches = testing::PoolDispatches([&] {
      out = a.Multiply(x);
      a.MultiplyAccumulate(x, masked_out, mask);
      out_t = a.MultiplyTransposed(x);
      masked_out_t = a.MultiplyTransposed(x, mask);
    });
    if (threads == 4) {
      EXPECT_GE(dispatches, 4);  // each product fanned out
    }
    EXPECT_TRUE(SameBits(out, forward)) << threads;
    EXPECT_TRUE(SameBits(masked_out, forward_masked)) << threads;
    EXPECT_TRUE(SameBits(out_t, transposed)) << threads;
    EXPECT_TRUE(SameBits(masked_out_t, transposed_masked)) << threads;
  }
  SetParallelThreadCount(0);
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CsrMatrix empty;
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.nnz(), 0);
}

}  // namespace
}  // namespace skipnode
