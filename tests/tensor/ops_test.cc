// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include <vector>

#include "base/aligned.h"
#include "base/parallel.h"
#include "base/simd.h"
#include "base/rng.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

// Reference O(n^3) matmul for property checks.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double total = 0.0;
      for (int p = 0; p < a.cols(); ++p) {
        total += static_cast<double>(a(i, p)) * b(p, j);
      }
      out(i, j) = static_cast<float>(total);
    }
  }
  return out;
}

TEST(OpsTest, MatMulMatchesNaive) {
  Rng rng(1);
  Matrix a = Matrix::Random(7, 5, rng);
  Matrix b = Matrix::Random(5, 9, rng);
  EXPECT_LT(MaxAbsDiff(MatMul(a, b), NaiveMatMul(a, b)), 1e-4f);
}

TEST(OpsTest, MatMulIdentity) {
  Rng rng(2);
  Matrix a = Matrix::Random(6, 6, rng);
  EXPECT_LT(MaxAbsDiff(MatMul(a, Matrix::Identity(6)), a), 1e-6f);
  EXPECT_LT(MaxAbsDiff(MatMul(Matrix::Identity(6), a), a), 1e-6f);
}

TEST(OpsTest, MatMulTransposeAMatchesExplicitTranspose) {
  Rng rng(3);
  Matrix a = Matrix::Random(8, 4, rng);
  Matrix b = Matrix::Random(8, 5, rng);
  EXPECT_LT(MaxAbsDiff(MatMulTransposeA(a, b), MatMul(Transpose(a), b)),
            1e-4f);
}

TEST(OpsTest, MatMulTransposeBMatchesExplicitTranspose) {
  Rng rng(4);
  Matrix a = Matrix::Random(6, 7, rng);
  Matrix b = Matrix::Random(5, 7, rng);
  Matrix out(6, 5);
  Gemm(a, b, out, {.transpose_b = true});
  EXPECT_LT(MaxAbsDiff(out, MatMul(a, Transpose(b))), 1e-4f);
}

TEST(OpsTest, AccumulateVariantsAdd) {
  Rng rng(5);
  Matrix a = Matrix::Random(4, 4, rng);
  Matrix b = Matrix::Random(4, 4, rng);
  Matrix out = Matrix::Ones(4, 4);
  Gemm(a, b, out, {.accumulate = true});
  EXPECT_LT(MaxAbsDiff(out, Add(MatMul(a, b), Matrix::Ones(4, 4))), 1e-5f);
}

TEST(OpsTest, ElementwiseOps) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {4, 5, 6});
  EXPECT_LT(MaxAbsDiff(Add(a, b), Matrix(1, 3, {5, 7, 9})), 1e-6f);
  EXPECT_LT(MaxAbsDiff(Sub(b, a), Matrix(1, 3, {3, 3, 3})), 1e-6f);
  EXPECT_LT(MaxAbsDiff(Hadamard(a, b), Matrix(1, 3, {4, 10, 18})), 1e-6f);
  EXPECT_LT(MaxAbsDiff(Scale(a, 2.0f), Matrix(1, 3, {2, 4, 6})), 1e-6f);
}

TEST(OpsTest, AddScaledAccumulates) {
  Matrix a(1, 2, {1, 2});
  Matrix out(1, 2, {10, 20});
  AddScaled(a, 3.0f, out);
  EXPECT_LT(MaxAbsDiff(out, Matrix(1, 2, {13, 26})), 1e-6f);
}

TEST(OpsTest, ReluClampsNegatives) {
  Matrix x(1, 4, {-1, 0, 2, -3});
  EXPECT_LT(MaxAbsDiff(Relu(x), Matrix(1, 4, {0, 0, 2, 0})), 1e-6f);
}

TEST(OpsTest, ReluBackwardMasksByInput) {
  Matrix x(1, 4, {-1, 0.5f, 2, -3});
  Matrix g(1, 4, {10, 10, 10, 10});
  EXPECT_LT(MaxAbsDiff(ReluBackward(x, g), Matrix(1, 4, {0, 10, 10, 0})),
            1e-6f);
}

TEST(OpsTest, TransposeRoundTrip) {
  Rng rng(6);
  Matrix a = Matrix::Random(5, 8, rng);
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(a)), a), 1e-6f);
}

TEST(OpsTest, ConcatColsLaysOutParts) {
  Matrix a(2, 1, {1, 3});
  Matrix b(2, 2, {10, 20, 30, 40});
  Matrix joined = ConcatCols({&a, &b});
  EXPECT_LT(MaxAbsDiff(joined, Matrix(2, 3, {1, 10, 20, 3, 30, 40})), 1e-6f);
}

TEST(OpsTest, GatherScatterRoundTrip) {
  Matrix x(4, 2, {0, 1, 10, 11, 20, 21, 30, 31});
  const std::vector<int> rows = {2, 0, 2};
  Matrix gathered = GatherRows(x, rows);
  EXPECT_LT(MaxAbsDiff(gathered, Matrix(3, 2, {20, 21, 0, 1, 20, 21})),
            1e-6f);
  Matrix accum(4, 2);
  ScatterAddRows(gathered, rows, accum);
  // Row 2 received two copies, row 0 one.
  EXPECT_FLOAT_EQ(accum.at(2, 0), 40.0f);
  EXPECT_FLOAT_EQ(accum.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(accum.at(1, 0), 0.0f);
}

TEST(OpsTest, ColumnMeansAndSubtract) {
  Matrix x(2, 2, {1, 2, 3, 4});
  Matrix means = ColumnMeans(x);
  EXPECT_LT(MaxAbsDiff(means, Matrix(1, 2, {2, 3})), 1e-6f);
  Matrix centered = SubtractRowVector(x, means);
  EXPECT_LT(MaxAbsDiff(ColumnMeans(centered), Matrix(1, 2)), 1e-6f);
}

TEST(OpsTest, RowNormsAndDots) {
  Matrix a(2, 2, {3, 4, 1, 0});
  Matrix norms = RowNorms(a);
  EXPECT_FLOAT_EQ(norms.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(norms.at(1, 0), 1.0f);
  Matrix b(2, 2, {1, 1, 2, 5});
  Matrix dots = RowDots(a, b);
  EXPECT_FLOAT_EQ(dots.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(dots.at(1, 0), 2.0f);
}

TEST(OpsTest, CosineSimilarityBasics) {
  const float a[] = {1, 0};
  const float b[] = {0, 1};
  const float c[] = {2, 0};
  EXPECT_NEAR(CosineSimilarity(a, b, 2), 0.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity(a, c, 2), 1.0f, 1e-6f);
  const float zero[] = {0, 0};
  EXPECT_EQ(CosineSimilarity(a, zero, 2), 0.0f);
}

TEST(OpsTest, GemmWideOutputsKeepTheSerialRecurrence) {
  // The row kernel holds each 32-column block of an output row in registers
  // across the whole reduction (600 = 18 x 32 + 16 + 8 columns); its
  // contract is that each element is still accumulated in plain p-ascending
  // float order. Check every element against that exact serial recurrence.
  Rng rng(31);
  // 24 rows: four grains of work, so the 4-thread run below fans out.
  const int m = 24;
  const Matrix a = Matrix::Random(m, 37, rng);
  const Matrix b = Matrix::Random(37, 600, rng);

  Matrix out(m, 600);
  Gemm(a, b, out);
  Matrix accumulated = Matrix::Ones(m, 600);
  Gemm(a, b, accumulated, {.accumulate = true});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < 600; ++j) {
      float acc = 0.0f;
      float acc_from_one = 1.0f;
      for (int p = 0; p < 37; ++p) {
        acc += a(i, p) * b(p, j);
        acc_from_one += a(i, p) * b(p, j);
      }
      EXPECT_EQ(out(i, j), acc) << i << "," << j;
      EXPECT_EQ(accumulated(i, j), acc_from_one) << i << "," << j;
    }
  }

  // And the blocks must not interact with row sharding: 4 threads bitwise
  // match 1 thread on a wide output.
  SetParallelThreadCount(1);
  Matrix serial(m, 600);
  Gemm(a, b, serial);
  SetParallelThreadCount(4);
  Matrix threaded(m, 600);
  EXPECT_GT(testing::PoolDispatches([&] { Gemm(a, b, threaded); }), 0);
  SetParallelThreadCount(0);
  EXPECT_EQ(MaxAbsDiff(serial, threaded), 0.0f);
}

// out (+)= op(A)·B by the serial recurrence Gemm's contract fixes: every
// element starts at +0 (or at out) and adds a * b over ascending p, skipping
// the entries of A that compare equal to 0.0f.
Matrix SerialGemm(const Matrix& a, const Matrix& b, bool transpose_a,
                  const Matrix& start, bool accumulate) {
  Matrix out = start;
  const int k = transpose_a ? a.rows() : a.cols();
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      float acc = accumulate ? start(i, j) : 0.0f;
      for (int p = 0; p < k; ++p) {
        const float aip = transpose_a ? a(p, i) : a(i, p);
        if (aip == 0.0f) continue;
        acc += aip * b(p, j);
      }
      out(i, j) = acc;
    }
  }
  return out;
}

// Zero entries of both signs, NaN and ±Inf, through Gemm's A·B and Aᵀ·B at
// 1 and 4 threads, from scratch and onto an output holding -0.0f. B's row 5
// is NaN and its row 6 +Inf: the entries of A in front of them are zero
// except in one row of op(A), whose outputs must all go NaN, as must those
// of the row holding a NaN. Outputs of rows without NaN or Inf stay finite,
// and every output equals the serial recurrence bit for bit. Each output
// meets at most one NaN source.
TEST(OpsTest, GemmSkipsExactlyTheZeroEntriesAtAnyThreadCount) {
  Rng rng(41);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // k = 300 crosses the Aᵀ·B path's 128-row gather passes; 96 output rows
  // fan out over 4 threads, and 37 columns run a 32- and a 4-column block
  // and a 1-column scalar tail.
  const int m = 96, k = 300, n = 37;
  Matrix op_a = Matrix::Random(m, k, rng);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      if ((i + p) % 3 == 0) op_a(i, p) = 0.0f;
      if ((i + p) % 7 == 1) op_a(i, p) = -0.0f;
    }
    op_a(i, 5) = i % 2 ? -0.0f : 0.0f;
    op_a(i, 6) = i % 2 ? 0.0f : -0.0f;
  }
  op_a(11, 5) = 2.0f;  // Lets B's NaN row through on output row 11.
  op_a(20, 100) = nan;  // A NaN in A itself: output row 20 goes NaN.
  op_a(30, 7) = inf;
  op_a(30, 200) = -inf;
  for (int p = 0; p < k; ++p) op_a(40, p) = p % 2 ? -0.0f : 0.0f;
  Matrix b = Matrix::Random(k, n, rng);
  for (int j = 0; j < n; ++j) {
    b(5, j) = nan;
    b(6, j) = inf;
  }
  const Matrix a_t = Transpose(op_a);  // Aᵀ·B reads op(A) = (a_t)ᵀ.
  Matrix start = Matrix::Random(m, n, rng);
  for (int i = 0; i < m; ++i) start(i, i % n) = -0.0f;

  for (const bool transpose_a : {false, true}) {
    const Matrix& a = transpose_a ? a_t : op_a;
    for (const bool accumulate : {false, true}) {
      const Matrix expected =
          SerialGemm(a, b, transpose_a, start, accumulate);
      for (const int threads : {1, 4}) {
        SetParallelThreadCount(threads);
        Matrix out = start;
        const int64_t dispatches = testing::PoolDispatches([&] {
          Gemm(a, b, out,
               {.transpose_a = transpose_a, .accumulate = accumulate});
        });
        SetParallelThreadCount(0);
        if (threads == 4) {
          ASSERT_GT(dispatches, 0);
        }
        ASSERT_EQ(std::memcmp(out.data(), expected.data(),
                              sizeof(float) * static_cast<size_t>(out.size())),
                  0)
            << "transpose_a=" << transpose_a << " accumulate=" << accumulate
            << " threads=" << threads;
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            if (i == 11 || i == 20) {
              ASSERT_TRUE(std::isnan(out(i, j))) << i << "," << j;
            } else {
              // Row 30 sums +Inf and -Inf products: Inf or NaN by sign.
              ASSERT_EQ(std::isfinite(out(i, j)), i != 30) << i << "," << j;
            }
          }
        }
        // An all-zero row adds nothing: +0 from scratch, the accumulated
        // -0.0f kept.
        ASSERT_EQ(std::signbit(out(40, 40 % n)), accumulate);
      }
    }
  }
}

TEST(OpsDeathTest, GemmRejectsBothTransposes) {
  Matrix a(6, 4), b(5, 6), out(4, 5);
  EXPECT_DEATH(Gemm(a, b, out, {.transpose_a = true, .transpose_b = true}),
               "transpose_a");
}

TEST(OpsTest, GemmAccumulateAddsOntoExistingOutput) {
  Rng rng(12);
  Matrix a = Matrix::Random(5, 3, rng);
  Matrix b = Matrix::Random(3, 4, rng);
  Matrix out = Matrix::Ones(5, 4);
  Gemm(a, b, out, {.accumulate = true});
  EXPECT_LT(MaxAbsDiff(out, Add(MatMul(a, b), Matrix::Ones(5, 4))), 1e-5f);
  // Without accumulate the old contents are discarded.
  Gemm(a, b, out);
  EXPECT_LT(MaxAbsDiff(out, MatMul(a, b)), 1e-6f);
}

// True bitwise equality, not an epsilon: the parallel partition must not
// change a single accumulation order.
void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * a.size()), 0);
}

TEST(OpsTest, GemmIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(13);
  // Big enough that every Gemm below exceeds the pool's grain and fans out
  // (asserted).
  Matrix a = Matrix::Random(192, 96, rng);
  Matrix b = Matrix::Random(96, 64, rng);
  Matrix at = Transpose(a);  // For the transpose_a path: 96 x 192.
  Matrix bt = Transpose(b);  // For the transpose_b path: 64 x 96.

  const GemmOptions variants[] = {
      {},
      {.transpose_a = true},
      {.transpose_b = true},
      {.accumulate = true},
      {.transpose_a = true, .accumulate = true},
  };
  for (const GemmOptions& options : variants) {
    const Matrix& lhs = options.transpose_a ? at : a;
    const Matrix& rhs = options.transpose_b ? bt : b;
    SetParallelThreadCount(1);
    Matrix serial = Matrix::Ones(192, 64);
    Gemm(lhs, rhs, serial, options);
    SetParallelThreadCount(4);
    Matrix threaded = Matrix::Ones(192, 64);
    EXPECT_GT(testing::PoolDispatches(
                  [&] { Gemm(lhs, rhs, threaded, options); }),
              0);
    SetParallelThreadCount(0);
    ExpectBitwiseEqual(serial, threaded);
  }
  // A * B^T at an output width that leaves a partial panel (61 = 7 * 8 + 5).
  const Matrix b_narrow = Matrix::Random(61, 96, rng);
  for (const bool accumulate : {false, true}) {
    const GemmOptions options{.transpose_b = true, .accumulate = accumulate};
    SetParallelThreadCount(1);
    Matrix serial = Matrix::Ones(192, 61);
    Gemm(a, b_narrow, serial, options);
    SetParallelThreadCount(4);
    Matrix threaded = Matrix::Ones(192, 61);
    EXPECT_GT(testing::PoolDispatches(
                  [&] { Gemm(a, b_narrow, threaded, options); }),
              0);
    SetParallelThreadCount(0);
    ExpectBitwiseEqual(serial, threaded);
  }
}

TEST(OpsTest, RowOpsAreBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(14);
  // 16384 rows: both ops exceed the pool's grain at 4 threads.
  Matrix x = Matrix::Random(16384, 32, rng, -3.0f, 3.0f);
  SetParallelThreadCount(1);
  Matrix norms1 = RowNorms(x), relu1 = Relu(x);
  SetParallelThreadCount(4);
  Matrix norms4, relu4;
  EXPECT_GE(testing::PoolDispatches([&] { norms4 = RowNorms(x); }), 1);
  EXPECT_GE(testing::PoolDispatches([&] { relu4 = Relu(x); }), 1);
  SetParallelThreadCount(0);
  ExpectBitwiseEqual(norms1, norms4);
  ExpectBitwiseEqual(relu1, relu4);
}

// 200k rows of 5 columns fan out over the pool; every row must hold x.row + v
// exactly, as the serial loop computed it, at any thread count.
TEST(OpsTest, AddRowVectorIntoIsBitwiseAtAnyThreadCount) {
  Rng rng(15);
  const Matrix x = Matrix::Random(200000, 5, rng, -3.0f, 3.0f);
  const Matrix v = Matrix::Random(1, 5, rng, -3.0f, 3.0f);
  Matrix serial(x.rows(), x.cols());
  for (int r = 0; r < x.rows(); ++r) {
    simd::Add(x.row(r), v.row(0), serial.row(r), x.cols());
  }
  for (const int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    Matrix out(x.rows(), x.cols());
    const int64_t dispatches =
        testing::PoolDispatches([&] { AddRowVectorInto(x, v, out); });
    if (threads == 4) {
      EXPECT_GT(dispatches, 0);
    }
    ExpectBitwiseEqual(out, serial);
  }
  SetParallelThreadCount(0);
}

TEST(OpsTest, NonFiniteScansFindNothingInCleanMatrices) {
  Rng rng(21);
  Matrix x = Matrix::Random(64, 8, rng, -10.0f, 10.0f);
  EXPECT_FALSE(HasNonFinite(x));
  const std::vector<uint8_t> flags = RowNonFiniteFlags(x);
  for (const uint8_t flag : flags) EXPECT_EQ(flag, 0);
}

TEST(OpsTest, NonFiniteScansFlagNanAndInfPerRow) {
  Matrix x = Matrix::Ones(5, 4);
  x(1, 2) = std::numeric_limits<float>::quiet_NaN();
  x(3, 0) = std::numeric_limits<float>::infinity();
  x(3, 3) = -std::numeric_limits<float>::infinity();
  EXPECT_TRUE(HasNonFinite(x));
  EXPECT_EQ(RowNonFiniteFlags(x),
            (std::vector<uint8_t>{0, 1, 0, 1, 0}));
}

TEST(OpsTest, HealthScansAreBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(22);
  // 28000 rows: the scan exceeds the pool's grain at 4 threads.
  Matrix x = Matrix::Random(28000, 40, rng, -5.0f, 5.0f);
  x(123, 7) = std::numeric_limits<float>::quiet_NaN();
  x(21600, 0) = std::numeric_limits<float>::infinity();
  SetParallelThreadCount(1);
  const std::vector<uint8_t> flags1 = RowNonFiniteFlags(x);
  SetParallelThreadCount(4);
  std::vector<uint8_t> flags4;
  EXPECT_GT(testing::PoolDispatches([&] { flags4 = RowNonFiniteFlags(x); }),
            0);
  SetParallelThreadCount(0);
  EXPECT_EQ(flags1, flags4);
  EXPECT_EQ(std::count(flags1.begin(), flags1.end(), 1), 2);
}

TEST(OpsTest, MaxSingularValueOfDiagonal) {
  Matrix w(3, 3);
  w.at(0, 0) = 0.5f;
  w.at(1, 1) = 2.0f;
  w.at(2, 2) = 1.0f;
  EXPECT_NEAR(MaxSingularValue(w), 2.0f, 1e-3f);
}

TEST(OpsTest, MaxSingularValueScalesLinearly) {
  Rng rng(9);
  Matrix w = Matrix::Random(10, 6, rng);
  const float sigma = MaxSingularValue(w);
  EXPECT_NEAR(MaxSingularValue(Scale(w, 3.0f)), 3.0f * sigma, 2e-2f * sigma);
}

TEST(OpsTest, SetMaxSingularValueHitsTarget) {
  Rng rng(10);
  Matrix w = Matrix::Random(12, 12, rng);
  SetMaxSingularValue(w, 0.25f);
  EXPECT_NEAR(MaxSingularValue(w), 0.25f, 5e-3f);
}


TEST(OpsTest, AxpbyIntoMatchesScaleIntoPlusAddScaledBitwise) {
  Rng rng(11);
  const Matrix a = Matrix::Random(13, 19, rng);
  const Matrix b = Matrix::Random(13, 19, rng);
  Matrix fused(13, 19), staged(13, 19);
  AxpbyInto(a, b, 0.7f, -1.3f, fused);
  ScaleInto(a, 0.7f, staged);
  AddScaled(b, -1.3f, staged);
  EXPECT_EQ(std::memcmp(fused.data(), staged.data(),
                        sizeof(float) * static_cast<size_t>(fused.size())),
            0);
}

// Every vectorized tensor kernel must match the scalar reference bitwise —
// the DESIGN section 14 exact-path contract — at odd (tail-leaving) shapes
// and any thread count.
TEST(OpsTest, VectorizedKernelsMatchScalarReferenceBitwise) {
  const bool saved = simd::Enabled();
  Rng rng(12);
  const int m = 13, k = 17, n = 19;
  const Matrix a = Matrix::Random(m, k, rng);
  const Matrix b = Matrix::Random(k, n, rng);
  const Matrix at = Transpose(a);
  const Matrix bt = Transpose(b);
  // Element-wise operands large enough to fan out, with an odd element
  // count so every strip leaves a tail.
  const int rows = 30011;
  const Matrix x = Matrix::Random(rows, n, rng);
  const Matrix y = Matrix::Random(rows, n, rng);
  const Matrix v = Matrix::Random(1, n, rng);
  // An A * B^T large enough to fan out over threads, accumulating into a
  // random output whose width (45) leaves a partial panel.
  const Matrix wide_a = Matrix::Random(1600, 33, rng);
  const Matrix wide_bt = Matrix::Random(45, 33, rng);
  const Matrix wide_init = Matrix::Random(1600, 45, rng);

  auto run_all = [&]() {
    std::vector<Matrix> outs;
    Matrix nn(m, n), tn(m, n), tb(m, n);
    Gemm(a, b, nn);
    Gemm(at, b, tn, {.transpose_a = true});
    Gemm(a, bt, tb, {.transpose_b = true});
    outs.push_back(std::move(nn));
    outs.push_back(std::move(tn));
    outs.push_back(std::move(tb));
    Matrix wide_tb = wide_init;
    Gemm(wide_a, wide_bt, wide_tb, {.transpose_b = true, .accumulate = true});
    outs.push_back(std::move(wide_tb));
    outs.push_back(Add(x, y));
    outs.push_back(Sub(x, y));
    outs.push_back(Hadamard(x, y));
    outs.push_back(Scale(x, -0.3f));
    Matrix axpby(rows, n);
    AxpbyInto(x, y, 0.5f, 1.5f, axpby);
    outs.push_back(std::move(axpby));
    outs.push_back(Relu(x));
    outs.push_back(ReluBackward(x, y));
    outs.push_back(SubtractRowVector(x, v));
    return outs;
  };

  simd::SetEnabled(false);
  SetParallelThreadCount(1);
  const std::vector<Matrix> reference = run_all();
  for (const bool vec : {false, true}) {
    simd::SetEnabled(vec);
    for (const int threads : {1, 4, 8}) {
      SetParallelThreadCount(threads);
      std::vector<Matrix> got;
      const int64_t dispatches =
          testing::PoolDispatches([&] { got = run_all(); });
      if (threads > 1) {
        EXPECT_GT(dispatches, 0) << "threads=" << threads;
      }
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::memcmp(got[i].data(), reference[i].data(),
                              sizeof(float) *
                                  static_cast<size_t>(got[i].size())),
                  0)
            << "kernel " << i << " simd=" << vec << " threads=" << threads;
      }
    }
  }
  SetParallelThreadCount(0);
  simd::SetEnabled(saved);
}

TEST(OpsTest, MatrixAndOpsOutputsAreCacheLineAligned) {
  Matrix m(5, 7);
  EXPECT_TRUE(IsBufferAligned(m.data()));
  Rng rng(14);
  Matrix r = Matrix::Random(3, 3, rng);
  EXPECT_TRUE(IsBufferAligned(Relu(r).data()));
}

}  // namespace
}  // namespace skipnode
