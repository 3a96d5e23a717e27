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
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/tape.h"
#include "base/parallel.h"
#include "base/telemetry.h"
#include "core/skipnode.h"
#include "sparse/csr_matrix.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "testing/coo_matrix.h"
#include "testing/pool_dispatches.h"

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

// Shape of the bitwise cases below: enough rows and columns that an SpMM
// over MediumAdjacency exceeds the pool's grain several times.
constexpr int kBitwiseRows = 16384;
constexpr int kBitwiseCols = 32;

// A random graph with ~5 entries per row. At the sizes below
// (kBitwiseRows rows, kBitwiseCols columns) one SpMM carries several grains
// of work, so the 4-thread runs fan out (each asserts it did).
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
  const int n = kBitwiseRows, d = kBitwiseCols;
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
      const int64_t dispatches = testing::PoolDispatches([&] {
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
      });
      SetParallelThreadCount(0);
      SetMatrixPoolEnabled(true);
      if (threads == 4) {
        EXPECT_GT(dispatches, 0) << c.name << " pooled=" << pooled;
      }

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
                      BitwiseCase{"BlockUniformRho05", 0.5f, false,
                                  kBitwiseRows * 5 / 8},
                      BitwiseCase{"BlockBiasedRho05", 0.5f, true,
                                  kBitwiseRows * 5 / 8}),
    [](const ::testing::TestParamInfo<BitwiseCase>& info) {
      return info.param.name;
    });

// GRAND's random propagation (nn/grand.cc) passes one Var as both the
// convolved input and the skipped passthrough, K times over, and sums the
// powers. Its input is a tape constant, so the chain records no backward.
// The fused chain must match the unfused SpMM + RowSelect chain bit for bit
// at 1 and 4 threads, consuming the same masks.
TEST(FusedChainTest, GrandPropagationMatchesNaiveBitwise) {
  const int n = kBitwiseRows, d = kBitwiseCols, steps = 4;
  Rng graph_rng(42);
  const auto adjacency = MediumAdjacency(n, graph_rng);
  Rng data_rng(5);
  const Matrix x = Matrix::Random(n, d, data_rng, -1.0f, 1.0f);
  Rng mask_rng(7);
  std::vector<std::vector<uint8_t>> masks;
  for (int k = 0; k < steps; ++k) {
    masks.push_back(SampleSkipMaskUniform(n, 0.5f, mask_rng));
  }
  for (const int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    Matrix sums[2];
    const int64_t dispatches = testing::PoolDispatches([&] {
      for (int fused = 0; fused < 2; ++fused) {
        Tape tape;
        Var power = tape.Constant(x);
        Var sum = power;
        for (int k = 0; k < steps; ++k) {
          power = fused
                      ? tape.SpMMRowSelect(adjacency, power, power, masks[k])
                      : tape.RowSelect(masks[k], power,
                                       tape.SpMM(adjacency, power));
          sum = tape.Add(sum, power);
        }
        sums[fused] = sum.value();
      }
    });
    SetParallelThreadCount(0);
    if (threads == 4) {
      EXPECT_GT(dispatches, 0);
    }
    ASSERT_EQ(std::memcmp(sums[0].data(), sums[1].data(),
                          sizeof(float) * static_cast<size_t>(sums[0].size())),
              0)
        << "threads=" << threads;
  }
}

// GPRGNN's propagation (nn/gprgnn.cc) also passes one Var as both inputs,
// but its hops are trainable and a later combination reads every one of
// them. When a hop's backward runs, its input already holds the
// combination's gradient, so the order in which the op adds its two
// gradients into that one buffer decides the bits. The fused backward must
// add in the unfused order (passthrough, then Â^T g) at 1 and 4 threads.
TEST(FusedChainTest, AliasedChainWithLaterConsumersMatchesNaiveBitwise) {
  const int n = kBitwiseRows, d = kBitwiseCols, steps = 4;
  Rng graph_rng(42);
  const auto adjacency = MediumAdjacency(n, graph_rng);
  Rng data_rng(5);
  Parameter x_param("x", Matrix::Random(n, d, data_rng, -1.0f, 1.0f));
  Rng target_rng(11);
  const Matrix target = Matrix::Random(n, d, target_rng);
  Rng mask_rng(7);
  std::vector<std::vector<uint8_t>> masks;
  for (int k = 0; k < steps; ++k) {
    masks.push_back(SampleSkipMaskUniform(n, 0.5f, mask_rng));
  }
  for (const int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    Matrix grads[2];
    const int64_t dispatches = testing::PoolDispatches([&] {
      for (int fused = 0; fused < 2; ++fused) {
        Tape tape;
        Var power = tape.Leaf(x_param);
        std::vector<Var> hops = {power};
        for (int k = 0; k < steps; ++k) {
          power = fused
                      ? tape.SpMMRowSelect(adjacency, power, power, masks[k])
                      : tape.RowSelect(masks[k], power,
                                       tape.SpMM(adjacency, power));
          hops.push_back(power);
        }
        // Built after every hop, so its backward runs before theirs.
        Var combined = hops[0];
        float gamma = 1.0f;
        for (int k = 1; k <= steps; ++k) {
          gamma *= 0.7f;
          combined = tape.Axpby(combined, hops[static_cast<size_t>(k)], 1.0f,
                                gamma);
        }
        Var loss = tape.MseLoss(combined, tape.Constant(target));
        x_param.ZeroGrad();
        tape.Backward(loss);
        grads[fused] = x_param.grad;
      }
    });
    SetParallelThreadCount(0);
    if (threads == 4) {
      EXPECT_GT(dispatches, 0);
    }
    ASSERT_EQ(std::memcmp(grads[0].data(), grads[1].data(),
                          sizeof(float) * static_cast<size_t>(grads[0].size())),
              0)
        << "threads=" << threads;
  }
}

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
TEST(MaskedKernelTest, MaskedForwardSkipsExactlyMaskedRows) {
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
  a->MultiplyAccumulate(x, masked, kMixedMask);
  for (int j = 0; j < 5; ++j) {
    EXPECT_EQ(masked(0, j), full(0, j));
    EXPECT_EQ(masked(1, j), 123.0f);
    EXPECT_EQ(masked(2, j), full(2, j));
    EXPECT_EQ(masked(3, j), -7.0f);
  }
}

TEST(MaskedKernelTest, MaskedTransposeMatchesZeroedRows) {
  auto a = SmallAdjacency();
  Rng rng(4);
  const Matrix g = Matrix::Random(4, 5, rng);

  Matrix g_zeroed = g;
  for (int j = 0; j < 5; ++j) {
    g_zeroed(1, j) = 0.0f;
    g_zeroed(3, j) = 0.0f;
  }
  const Matrix expect = a->MultiplyTransposed(g_zeroed);
  const Matrix got = a->MultiplyTransposed(g, kMixedMask);
  EXPECT_EQ(MaxAbsDiff(expect, got), 0.0f);
}

// The SpMM telemetry the end-to-end benchmark reads: core.rows_skipped_share
// is spmm.rows_skipped items over sparse.spmm_masked items. Every call fires
// its own kernel timer once with items = output rows; a masked call also
// counts the masked rows once, and an unmasked call counts nothing.
TEST(MaskedKernelTest, TelemetryCountsOutputRowsAndSkippedRows) {
  // 5 x 3, so the forward (5 output rows) and the transpose (3) differ.
  const CsrMatrix a = testing::CsrFromCoo(
      5, 3, {{0, 0}, {0, 2}, {1, 1}, {2, 0}, {3, 2}, {4, 1}, {4, 2}},
      {0.5f, -1.0f, 2.0f, 1.5f, 0.25f, -0.75f, 1.0f});
  const std::vector<uint8_t> mask = {0, 1, 0, 1, 1};
  Rng rng(6);
  const Matrix x = Matrix::Random(3, 4, rng);
  const Matrix g = Matrix::Random(5, 4, rng);
  const auto stat = [](const TelemetrySnapshot& snapshot, const char* name) {
    const MetricStat* found = snapshot.Find(name);
    return found != nullptr ? *found : MetricStat{};
  };
  const bool saved = TelemetryEnabled();
  SetTelemetryEnabled(true);

  ResetTelemetry();
  Matrix out(5, 4);
  a.MultiplyAccumulate(x, out);
  (void)a.MultiplyTransposed(g);
  const TelemetrySnapshot unmasked = SnapshotTelemetry();
  EXPECT_EQ(stat(unmasked, "sparse.spmm").count, 1);
  EXPECT_EQ(stat(unmasked, "sparse.spmm").items, 5);
  EXPECT_EQ(stat(unmasked, "sparse.spmm_t").count, 1);
  EXPECT_EQ(stat(unmasked, "sparse.spmm_t").items, 3);
  for (const char* name : {"sparse.spmm_masked", "sparse.spmm_t_masked",
                           "spmm.rows_skipped", "spmm_t.rows_skipped"}) {
    EXPECT_EQ(unmasked.Find(name), nullptr) << name;
  }

  ResetTelemetry();
  Matrix masked_out(5, 4);
  a.MultiplyAccumulate(x, masked_out, mask);
  (void)a.MultiplyTransposed(g, mask);
  const TelemetrySnapshot masked = SnapshotTelemetry();
  EXPECT_EQ(stat(masked, "sparse.spmm_masked").count, 1);
  EXPECT_EQ(stat(masked, "sparse.spmm_masked").items, 5);
  EXPECT_EQ(stat(masked, "sparse.spmm_t_masked").count, 1);
  EXPECT_EQ(stat(masked, "sparse.spmm_t_masked").items, 3);
  EXPECT_EQ(stat(masked, "spmm.rows_skipped").count, 1);
  EXPECT_EQ(stat(masked, "spmm.rows_skipped").items, 3);
  EXPECT_EQ(stat(masked, "spmm_t.rows_skipped").count, 1);
  EXPECT_EQ(stat(masked, "spmm_t.rows_skipped").items, 3);
  EXPECT_EQ(masked.Find("sparse.spmm"), nullptr);
  EXPECT_EQ(masked.Find("sparse.spmm_t"), nullptr);

  ResetTelemetry();
  SetTelemetryEnabled(saved);
}

}  // namespace
}  // namespace skipnode
