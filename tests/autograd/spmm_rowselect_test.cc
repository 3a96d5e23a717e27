// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The fused SkipNode propagation op (DESIGN §10). Two contracts:
//   1. Gradients are exact: analytic vs central differences, w.r.t. both the
//      convolved input x and the skipped passthrough pre.
//   2. Fused == naive, bitwise: SpMMRowSelect(a, x, pre, mask) must produce
//      the same forward values and the same accumulated parameter gradients
//      as RowSelect(mask, pre, SpMM(a, x)) at every thread count, every rho,
//      and for both mask samplers — with the workspace pool on or off, and
//      on square adjacencies as well as on sampled-block shapes.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/tape.h"
#include "base/parallel.h"
#include "core/skipnode.h"
#include "sparse/csr_matrix.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "testing/coo_matrix.h"

namespace skipnode {
namespace {

constexpr float kEpsilon = 1e-2f;
constexpr float kRelTolerance = 3e-2f;
constexpr float kAbsTolerance = 2e-2f;

std::shared_ptr<const CsrMatrix> SmallAdjacency() {
  return std::make_shared<const CsrMatrix>(testing::CsrFromCoo(
      4, 4,
      {{0, 0}, {0, 1}, {1, 1}, {1, 3}, {2, 0}, {2, 2}, {3, 2}, {3, 3}},
      {0.5f, -1.0f, 2.0f, 1.5f, 0.25f, -0.75f, 1.0f, 0.5f}));
}

// A mask that exercises both branches: rows 1 and 3 skip, rows 0 and 2
// convolve.
const std::vector<uint8_t> kMixedMask = {0, 1, 0, 1};

void RunGradCheck(bool check_x) {
  Rng rng(1234);
  Parameter param("p", Matrix::Random(4, 3, rng, -1.0f, 1.0f));
  const Matrix fixed = Matrix::Random(4, 3, rng, -1.0f, 1.0f);
  Rng target_rng(99);
  const Matrix target = Matrix::Random(4, 3, target_rng);
  auto adjacency = SmallAdjacency();

  const auto forward = [&](Tape& tape) {
    Var leaf = tape.Leaf(param);
    Var other = tape.Constant(fixed);
    Var x = check_x ? leaf : other;
    Var pre = check_x ? other : leaf;
    Var out = tape.SpMMRowSelect(adjacency, x, pre, kMixedMask);
    return tape.MseLoss(out, tape.Constant(target));
  };

  const auto loss_fn = [&]() {
    Tape tape;
    return forward(tape).value()(0, 0);
  };
  {
    Tape tape;
    Var loss = forward(tape);
    param.ZeroGrad();
    tape.Backward(loss);
  }
  const GradCheckResult result = CheckGradient(loss_fn, param, kEpsilon);
  EXPECT_LT(result.max_abs_error, kAbsTolerance);
  EXPECT_LT(result.max_rel_error, kRelTolerance);
}

TEST(SpMMRowSelectGradTest, GradientWrtConvolvedInputMatchesNumeric) {
  RunGradCheck(/*check_x=*/true);
}

TEST(SpMMRowSelectGradTest, GradientWrtSkippedPassthroughMatchesNumeric) {
  RunGradCheck(/*check_x=*/false);
}

// --- Bitwise fused-vs-naive equivalence -------------------------------------

struct BitwiseCase {
  const char* name;
  float rho;
  bool biased;
  // 0: the square n x n adjacency. Otherwise a dst_rows x n block, shaped
  // like a sampled minibatch layer (DESIGN §15): fewer dst rows than src
  // columns, and masked rows hold only their self entry.
  int dst_rows = 0;
};

class FusedBitwiseTest : public ::testing::TestWithParam<BitwiseCase> {};

// A mid-sized random graph so several ParallelFor shards are in play.
std::shared_ptr<const CsrMatrix> MediumAdjacency(int n, Rng& rng) {
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
  for (int i = 0; i < n; ++i) {
    coords.push_back({i, i});
    values.push_back(1.0f);
    for (int k = 0; k < 4; ++k) {
      const int j = static_cast<int>(rng.UniformInt(n));
      coords.push_back({i, j});
      values.push_back(rng.UniformFloat(-1.0f, 1.0f));
    }
  }
  return std::make_shared<const CsrMatrix>(
      testing::CsrFromCoo(n, n, coords, values));
}

// The first `rows` rows of `a` as a sampled block: rows the mask skips keep
// only their self entry, as NeighborSampler builds them.
std::shared_ptr<const CsrMatrix> MaskedBlock(const CsrMatrix& a, int rows,
                                             const std::vector<uint8_t>& mask) {
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
  for (int r = 0; r < rows; ++r) {
    for (int64_t e = a.RowBegin(r); e < a.RowEnd(r); ++e) {
      const int col = a.col_idx()[static_cast<size_t>(e)];
      if (mask[static_cast<size_t>(r)] != 0 && col != r) continue;
      coords.push_back({r, col});
      values.push_back(a.values()[static_cast<size_t>(e)]);
    }
  }
  return std::make_shared<const CsrMatrix>(
      testing::CsrFromCoo(rows, a.cols(), coords, values));
}

std::vector<int> Degrees(int n, Rng& rng) {
  std::vector<int> degrees(n);
  for (int& d : degrees) d = 1 + static_cast<int>(rng.UniformInt(9));
  return degrees;
}

TEST_P(FusedBitwiseTest, FusedMatchesNaiveBitwise) {
  const BitwiseCase& c = GetParam();
  const int n = 64, d = 7;
  const int rows = c.dst_rows > 0 ? c.dst_rows : n;
  Rng graph_rng(42);
  auto adjacency = MediumAdjacency(n, graph_rng);
  const std::vector<int> degrees = Degrees(n, graph_rng);

  // Both paths must consume the identical mask; sample it once up front the
  // way StrategyContext does (biased through the cached-weights overload).
  Rng mask_rng(7);
  std::vector<uint8_t> mask;
  if (c.biased) {
    std::vector<double> weights(degrees.begin(), degrees.begin() + rows);
    mask = SampleSkipMaskBiased(weights, c.rho, mask_rng);
  } else {
    mask = SampleSkipMaskUniform(rows, c.rho, mask_rng);
  }
  if (c.dst_rows > 0) adjacency = MaskedBlock(*adjacency, rows, mask);

  for (const int threads : {1, 4}) {
    for (const bool pooled : {true, false}) {
      SetParallelThreadCount(threads);
      SetMatrixPoolEnabled(pooled);

      Rng data_rng(9);
      Parameter x_param("x", Matrix::Random(n, d, data_rng, -1.0f, 1.0f));
      Parameter pre_param("pre",
                          Matrix::Random(rows, d, data_rng, -1.0f, 1.0f));
      Rng target_rng(11);
      const Matrix target = Matrix::Random(rows, d, target_rng);

      Matrix values[2], x_grads[2], pre_grads[2];
      for (int fused = 0; fused < 2; ++fused) {
        Tape tape;
        Var x = tape.Leaf(x_param);
        Var pre = tape.Leaf(pre_param);
        Var out = fused
                      ? tape.SpMMRowSelect(adjacency, x, pre, mask)
                      : tape.RowSelect(mask, pre, tape.SpMM(adjacency, x));
        values[fused] = out.value();
        Var loss = tape.MseLoss(out, tape.Constant(target));
        x_param.ZeroGrad();
        pre_param.ZeroGrad();
        tape.Backward(loss);
        x_grads[fused] = x_param.grad;
        pre_grads[fused] = pre_param.grad;
      }
      SetParallelThreadCount(0);
      SetMatrixPoolEnabled(true);

      // Bitwise: exact zero difference, not approximately zero.
      EXPECT_EQ(MaxAbsDiff(values[0], values[1]), 0.0f)
          << c.name << " threads=" << threads << " pooled=" << pooled;
      EXPECT_EQ(MaxAbsDiff(x_grads[0], x_grads[1]), 0.0f)
          << c.name << " threads=" << threads << " pooled=" << pooled;
      EXPECT_EQ(MaxAbsDiff(pre_grads[0], pre_grads[1]), 0.0f)
          << c.name << " threads=" << threads << " pooled=" << pooled;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RhoSweep, FusedBitwiseTest,
    ::testing::Values(BitwiseCase{"UniformRho0", 0.0f, false},
                      BitwiseCase{"UniformRho05", 0.5f, false},
                      BitwiseCase{"UniformRho1", 1.0f, false},
                      BitwiseCase{"BiasedRho0", 0.0f, true},
                      BitwiseCase{"BiasedRho05", 0.5f, true},
                      BitwiseCase{"BiasedRho1", 1.0f, true},
                      BitwiseCase{"BlockUniformRho05", 0.5f, false, 40},
                      BitwiseCase{"BlockBiasedRho05", 0.5f, true, 40}),
    [](const ::testing::TestParamInfo<BitwiseCase>& info) {
      return info.param.name;
    });

// The cached-weights biased sampler must be draw-for-draw identical to the
// original int-degrees overload (the caching satellite must not change which
// nodes are skipped).
TEST(BiasedSamplerCacheTest, WeightsOverloadMatchesDegreesOverload) {
  Rng rng_a(5), rng_b(5);
  const std::vector<int> degrees = {3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<double> weights(degrees.begin(), degrees.end());
  for (const float rho : {0.25f, 0.5f, 0.75f}) {
    EXPECT_EQ(SampleSkipMaskBiased(degrees, rho, rng_a),
              SampleSkipMaskBiased(weights, rho, rng_b))
        << "rho=" << rho;
  }
}

// Masked kernels in isolation: skipped rows of the masked SpMM output are
// left untouched, and the masked transpose ignores masked rows of g.
TEST(MaskedKernelTest, MultiplyAccumulateMaskedSkipsExactlyMaskedRows) {
  auto a = SmallAdjacency();
  Rng rng(3);
  const Matrix x = Matrix::Random(4, 5, rng);

  Matrix full(4, 5);
  a->MultiplyAccumulate(x, full);

  Matrix masked(4, 5);
  // Pre-fill so untouched rows are detectable.
  for (int j = 0; j < 5; ++j) {
    masked(1, j) = 123.0f;
    masked(3, j) = -7.0f;
  }
  a->MultiplyAccumulateMasked(x, kMixedMask, masked);
  for (int j = 0; j < 5; ++j) {
    EXPECT_EQ(masked(0, j), full(0, j));
    EXPECT_EQ(masked(1, j), 123.0f);
    EXPECT_EQ(masked(2, j), full(2, j));
    EXPECT_EQ(masked(3, j), -7.0f);
  }
}

TEST(MaskedKernelTest, MultiplyTransposedMaskedMatchesZeroedRows) {
  auto a = SmallAdjacency();
  Rng rng(4);
  const Matrix g = Matrix::Random(4, 5, rng);

  Matrix g_zeroed = g;
  for (int j = 0; j < 5; ++j) {
    g_zeroed(1, j) = 0.0f;
    g_zeroed(3, j) = 0.0f;
  }
  const Matrix expect = a->MultiplyTransposed(g_zeroed);
  const Matrix got = a->MultiplyTransposedMasked(g, kMixedMask);
  EXPECT_EQ(MaxAbsDiff(expect, got), 0.0f);
}

}  // namespace
}  // namespace skipnode
