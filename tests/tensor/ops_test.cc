// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include <vector>

#include "base/aligned.h"
#include "base/parallel.h"
#include "base/simd.h"
#include "base/rng.h"

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

TEST(OpsTest, RowSoftmaxSumsToOne) {
  Rng rng(7);
  Matrix x = Matrix::Random(5, 6, rng, -3.0f, 3.0f);
  Matrix p = RowSoftmax(x);
  for (int r = 0; r < p.rows(); ++r) {
    double total = 0.0;
    for (int c = 0; c < p.cols(); ++c) {
      EXPECT_GT(p(r, c), 0.0f);
      total += p(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(OpsTest, LogSoftmaxMatchesSoftmax) {
  Rng rng(8);
  Matrix x = Matrix::Random(4, 5, rng, -2.0f, 2.0f);
  Matrix p = RowSoftmax(x);
  Matrix lp = RowLogSoftmax(x);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(std::exp(lp(r, c)), p(r, c), 1e-5f);
    }
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariant) {
  Matrix x(1, 3, {1, 2, 3});
  Matrix shifted(1, 3, {1001, 1002, 1003});
  EXPECT_LT(MaxAbsDiff(RowSoftmax(x), RowSoftmax(shifted)), 1e-5f);
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

TEST(OpsTest, GemmColumnBlockingIsBitwiseExact) {
  // The untransposed kernel walks the output in 256-column panels for
  // locality; its contract is that each element is still accumulated in
  // plain p-ascending float order. Cross several panel boundaries and
  // check every element against that exact serial recurrence.
  Rng rng(31);
  const Matrix a = Matrix::Random(5, 37, rng);
  const Matrix b = Matrix::Random(37, 600, rng);

  Matrix out(5, 600);
  Gemm(a, b, out);
  Matrix accumulated = Matrix::Ones(5, 600);
  Gemm(a, b, accumulated, {.accumulate = true});
  for (int i = 0; i < 5; ++i) {
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

  // And the panels must not interact with row sharding: 4 threads bitwise
  // match 1 thread on a panel-crossing width.
  SetParallelThreadCount(1);
  Matrix serial(5, 600);
  Gemm(a, b, serial);
  SetParallelThreadCount(4);
  Matrix threaded(5, 600);
  Gemm(a, b, threaded);
  SetParallelThreadCount(0);
  EXPECT_EQ(MaxAbsDiff(serial, threaded), 0.0f);
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
  // Big enough that ParallelFor actually fans out past min_per_thread.
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
    Gemm(lhs, rhs, threaded, options);
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
    Gemm(a, b_narrow, threaded, options);
    SetParallelThreadCount(0);
    ExpectBitwiseEqual(serial, threaded);
  }
}

TEST(OpsTest, RowOpsAreBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(14);
  Matrix x = Matrix::Random(512, 32, rng, -3.0f, 3.0f);
  SetParallelThreadCount(1);
  Matrix soft1 = RowSoftmax(x), logsoft1 = RowLogSoftmax(x);
  Matrix norms1 = RowNorms(x), relu1 = Relu(x);
  SetParallelThreadCount(4);
  Matrix soft4 = RowSoftmax(x), logsoft4 = RowLogSoftmax(x);
  Matrix norms4 = RowNorms(x), relu4 = Relu(x);
  SetParallelThreadCount(0);
  ExpectBitwiseEqual(soft1, soft4);
  ExpectBitwiseEqual(logsoft1, logsoft4);
  ExpectBitwiseEqual(norms1, norms4);
  ExpectBitwiseEqual(relu1, relu4);
}

TEST(OpsTest, NonFiniteScansFindNothingInCleanMatrices) {
  Rng rng(21);
  Matrix x = Matrix::Random(64, 8, rng, -10.0f, 10.0f);
  EXPECT_FALSE(HasNonFinite(x));
  EXPECT_EQ(CountNonFinite(x), 0);
  const std::vector<uint8_t> flags = RowNonFiniteFlags(x);
  for (const uint8_t flag : flags) EXPECT_EQ(flag, 0);
}

TEST(OpsTest, NonFiniteScansFlagNanAndInfPerRow) {
  Matrix x = Matrix::Ones(5, 4);
  x(1, 2) = std::numeric_limits<float>::quiet_NaN();
  x(3, 0) = std::numeric_limits<float>::infinity();
  x(3, 3) = -std::numeric_limits<float>::infinity();
  EXPECT_TRUE(HasNonFinite(x));
  EXPECT_EQ(CountNonFinite(x), 3);
  EXPECT_EQ(RowNonFiniteFlags(x),
            (std::vector<uint8_t>{0, 1, 0, 1, 0}));
}

TEST(OpsTest, MaxRowNormPicksTheLargestRow) {
  Matrix x(3, 2);
  x(1, 0) = 3.0f;
  x(1, 1) = 4.0f;  // Row norm 5.
  x(2, 0) = 1.0f;
  EXPECT_FLOAT_EQ(MaxRowNorm(x), 5.0f);
  EXPECT_FLOAT_EQ(MaxRowNorm(Matrix()), 0.0f);
}

TEST(OpsTest, HealthScansAreBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(22);
  Matrix x = Matrix::Random(700, 40, rng, -5.0f, 5.0f);
  x(123, 7) = std::numeric_limits<float>::quiet_NaN();
  x(600, 0) = std::numeric_limits<float>::infinity();
  SetParallelThreadCount(1);
  const std::vector<uint8_t> flags1 = RowNonFiniteFlags(x);
  const int64_t count1 = CountNonFinite(x);
  const float norm1 = MaxRowNorm(x);
  SetParallelThreadCount(4);
  const std::vector<uint8_t> flags4 = RowNonFiniteFlags(x);
  const int64_t count4 = CountNonFinite(x);
  const float norm4 = MaxRowNorm(x);
  SetParallelThreadCount(0);
  EXPECT_EQ(flags1, flags4);
  EXPECT_EQ(count1, count4);
  EXPECT_EQ(count1, 2);
  // NaN != NaN, so compare the bit patterns.
  EXPECT_EQ(std::memcmp(&norm1, &norm4, sizeof(norm1)), 0);
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
  const Matrix x = Matrix::Random(m, n, rng);
  const Matrix y = Matrix::Random(m, n, rng);
  const Matrix v = Matrix::Random(1, n, rng);
  // An A * B^T large enough to fan out over threads, accumulating into a
  // random output whose width (45) leaves a partial panel.
  const Matrix wide_a = Matrix::Random(160, 33, rng);
  const Matrix wide_bt = Matrix::Random(45, 33, rng);
  const Matrix wide_init = Matrix::Random(160, 45, rng);

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
    Matrix axpby(m, n);
    AxpbyInto(x, y, 0.5f, 1.5f, axpby);
    outs.push_back(std::move(axpby));
    outs.push_back(Relu(x));
    outs.push_back(ReluBackward(x, y));
    outs.push_back(SubtractRowVector(x, v));
    outs.push_back(RowSoftmax(x));
    outs.push_back(RowLogSoftmax(x));
    return outs;
  };

  simd::SetEnabled(false);
  SetParallelThreadCount(1);
  const std::vector<Matrix> reference = run_all();
  for (const bool vec : {false, true}) {
    simd::SetEnabled(vec);
    for (const int threads : {1, 4, 8}) {
      SetParallelThreadCount(threads);
      const std::vector<Matrix> got = run_all();
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
