// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/optimizer.h"

#include <cmath>
#include <cstring>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/simd.h"

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

// Minimise mse(w, target); Adam must converge.
float MinimiseQuadratic(Adam& optimizer, int steps) {
  Parameter w("w", Matrix(2, 2, {5, -3, 2, 7}));
  const Matrix target(2, 2, {1, 1, 1, 1});
  const std::vector<Parameter*> params = {&w};
  for (int step = 0; step < steps; ++step) {
    Tape tape;
    Var loss = tape.MseLoss(tape.Leaf(w), tape.Constant(target));
    ZeroGrad(params);
    tape.Backward(loss);
    optimizer.Step(params);
  }
  return MaxAbsDiff(w.value, target);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Adam adam(0.1f);
  EXPECT_LT(MinimiseQuadratic(adam, 300), 1e-2f);
}

TEST(OptimizerTest, ZeroGradClearsAccumulators) {
  Parameter w("w", Matrix(1, 1, {1.0f}));
  w.grad.at(0, 0) = 123.0f;
  ZeroGrad({&w});
  EXPECT_EQ(w.grad.at(0, 0), 0.0f);
}

TEST(OptimizerTest, WeightDecayShrinksWeightsWithoutGradients) {
  // The weight-over-decaying mechanism of Section 4.2: when the
  // classification gradient is zero, L2 decay still drives weights down.
  Parameter w("w", Matrix(1, 1, {2.0f}));
  const std::vector<Parameter*> params = {&w};
  Adam adam(0.01f, /*weight_decay=*/0.1f);
  float prev = std::fabs(w.value.at(0, 0));
  for (int step = 0; step < 120; ++step) {
    ZeroGrad(params);  // No backward: gradient stays zero.
    adam.Step(params);
    const float cur = std::fabs(w.value.at(0, 0));
    EXPECT_LT(cur, prev);
    prev = cur;
  }
  EXPECT_LT(prev, 1.1f);
}

TEST(OptimizerTest, AdamIsScaleInvariantInFirstStep) {
  // Adam's first update has magnitude ~lr regardless of gradient scale.
  for (const float scale : {1.0f, 100.0f}) {
    Parameter w("w", Matrix(1, 1, {0.0f}));
    w.grad.at(0, 0) = scale;
    Adam adam(0.01f);
    adam.Step({&w});
    EXPECT_NEAR(w.value.at(0, 0), -0.01f, 1e-4f);
  }
}

// Adam updates must be bitwise identical with the vectorized kernels on and
// off (DESIGN section 14), odd sizes, any thread count. The parameter is
// large enough that an update exceeds the pool's grain and fans out.
TEST(OptimizerTest, StepsAreBitwiseIdenticalAcrossSimdAndThreads) {
  const bool saved = simd::Enabled();
  constexpr int kRows = 4001, kCols = 19;
  Rng rng(21);
  int64_t dispatches = 0;
  const auto run = [&](bool vec, int threads) {
    simd::SetEnabled(vec);
    SetParallelThreadCount(threads);
    Parameter w("w", Matrix::Random(kRows, kCols, rng));
    Rng local(33);
    Matrix init = Matrix::Random(kRows, kCols, local);
    w.value = init;
    Adam adam(0.01f, 5e-4f);
    dispatches = 0;
    for (int step = 0; step < 5; ++step) {
      Matrix g = Matrix::Random(kRows, kCols, local);
      w.grad = g;
      dispatches += testing::PoolDispatches([&] { adam.Step({&w}); });
    }
    return w.value;
  };
  const Matrix reference = run(false, 1);
  for (const bool vec : {false, true}) {
    for (const int threads : {1, 4, 8}) {
      const Matrix got = run(vec, threads);
      if (threads > 1) {
        EXPECT_EQ(dispatches, 5) << "threads=" << threads;
      }
      ASSERT_EQ(std::memcmp(got.data(), reference.data(),
                            sizeof(float) * static_cast<size_t>(got.size())),
                0)
          << "simd=" << vec << " threads=" << threads;
    }
  }
  SetParallelThreadCount(0);
  simd::SetEnabled(saved);
}

}  // namespace
}  // namespace skipnode
