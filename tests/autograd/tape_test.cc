// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "autograd/tape.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "base/telemetry.h"
#include "tensor/ops.h"
#include "testing/coo_matrix.h"

namespace skipnode {
namespace {

TEST(TapeTest, ConstantHoldsValue) {
  Tape tape;
  Var c = tape.Constant(Matrix(1, 2, {3, 4}));
  EXPECT_FLOAT_EQ(c.value().at(0, 1), 4.0f);
  EXPECT_EQ(c.rows(), 1);
  EXPECT_EQ(c.cols(), 2);
}

TEST(TapeTest, LeafReflectsParameterValue) {
  Rng rng(1);
  Parameter w("w", Matrix::Random(2, 2, rng));
  Tape tape;
  Var leaf = tape.Leaf(w);
  EXPECT_LT(MaxAbsDiff(leaf.value(), w.value), 1e-7f);
}

TEST(TapeTest, BackwardThroughScaleIsExact) {
  // loss = mse(2 * w, 0) = mean(4 w^2); dloss/dw = 8 w / size.
  Parameter w("w", Matrix(1, 2, {1.0f, -3.0f}));
  Tape tape;
  Var out = tape.Scale(tape.Leaf(w), 2.0f);
  Var loss = tape.MseLoss(out, tape.Constant(Matrix(1, 2)));
  EXPECT_FLOAT_EQ(loss.value()(0, 0), (4.0f + 36.0f) / 2.0f);
  w.ZeroGrad();
  tape.Backward(loss);
  EXPECT_NEAR(w.grad.at(0, 0), 8.0f * 1.0f / 2.0f, 1e-5f);
  EXPECT_NEAR(w.grad.at(0, 1), 8.0f * -3.0f / 2.0f, 1e-5f);
}

TEST(TapeTest, GradientAccumulatesWhenVarReused) {
  // loss = mse(w + w, 0): gradient doubles relative to a single use.
  Parameter w("w", Matrix(1, 1, {2.0f}));
  Tape tape;
  Var leaf = tape.Leaf(w);
  Var doubled = tape.Add(leaf, leaf);
  Var loss = tape.MseLoss(doubled, tape.Constant(Matrix(1, 1)));
  w.ZeroGrad();
  tape.Backward(loss);
  // d/dw (2w)^2 = 8w = 16.
  EXPECT_NEAR(w.grad.at(0, 0), 16.0f, 1e-5f);
}

TEST(TapeTest, GradAccumulatesAcrossTapes) {
  Parameter w("w", Matrix(1, 1, {1.0f}));
  w.ZeroGrad();
  for (int i = 0; i < 3; ++i) {
    Tape tape;
    Var loss = tape.MseLoss(tape.Leaf(w), tape.Constant(Matrix(1, 1)));
    tape.Backward(loss);
  }
  // Each pass adds 2w = 2.
  EXPECT_NEAR(w.grad.at(0, 0), 6.0f, 1e-5f);
}

TEST(TapeTest, UnusedBranchGetsZeroGrad) {
  Parameter used("used", Matrix(1, 1, {1.0f}));
  Parameter unused("unused", Matrix(1, 1, {1.0f}));
  Tape tape;
  Var a = tape.Leaf(used);
  tape.Leaf(unused);  // On tape, not connected to the loss.
  Var loss = tape.MseLoss(a, tape.Constant(Matrix(1, 1)));
  used.ZeroGrad();
  unused.ZeroGrad();
  tape.Backward(loss);
  EXPECT_NE(used.grad.at(0, 0), 0.0f);
  EXPECT_EQ(unused.grad.at(0, 0), 0.0f);
}

TEST(TapeTest, MatMulChainMatchesManualDerivative) {
  // loss = mse(x W, y). dL/dW = 2/size * x^T (xW - y).
  Rng rng(2);
  Matrix x_val = Matrix::Random(4, 3, rng);
  Matrix y_val = Matrix::Random(4, 2, rng);
  Parameter w("w", Matrix::Random(3, 2, rng));

  Tape tape;
  Var out = tape.MatMul(tape.Constant(x_val), tape.Leaf(w));
  Var loss = tape.MseLoss(out, tape.Constant(y_val));
  w.ZeroGrad();
  tape.Backward(loss);

  Matrix residual = Sub(MatMul(x_val, w.value), y_val);
  Matrix expected = Scale(MatMulTransposeA(x_val, residual),
                          2.0f / static_cast<float>(residual.size()));
  EXPECT_LT(MaxAbsDiff(w.grad, expected), 1e-4f);
}

TEST(TapeTest, DropoutEvalModeIsIdentity) {
  Rng rng(3);
  Tape tape;
  Matrix x = Matrix::Random(5, 5, rng);
  Var v = tape.Constant(x);
  Var out = tape.Dropout(v, 0.5f, /*training=*/false, rng);
  EXPECT_LT(MaxAbsDiff(out.value(), x), 1e-7f);
}

TEST(TapeTest, DropoutTrainingZeroesAndRescales) {
  Rng rng(4);
  Tape tape;
  Matrix x = Matrix::Ones(100, 100);
  Var out = tape.Dropout(tape.Constant(x), 0.4f, /*training=*/true, rng);
  int zeros = 0;
  double total = 0.0;
  for (int64_t i = 0; i < out.value().size(); ++i) {
    const float v = out.value().data()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
    }
    total += v;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.4, 0.03);
  // Inverted dropout keeps the expectation.
  EXPECT_NEAR(total / 10000.0, 1.0, 0.05);
}

TEST(TapeTest, RowSelectTakesMaskedRowsFromSkipPath) {
  Tape tape;
  Var skipped = tape.Constant(Matrix(3, 2, {1, 1, 2, 2, 3, 3}));
  Var convolved = tape.Constant(Matrix(3, 2, {9, 9, 8, 8, 7, 7}));
  Var out = tape.RowSelect({1, 0, 1}, skipped, convolved);
  EXPECT_LT(MaxAbsDiff(out.value(), Matrix(3, 2, {1, 1, 8, 8, 3, 3})),
            1e-7f);
}

TEST(TapeTest, SpmmMatchesDense) {
  Rng rng(5);
  auto sparse = std::make_shared<CsrMatrix>(
      testing::CsrFromCoo(3, 3, {{0, 1}, {1, 0}, {2, 2}}, {2, 2, 1}));
  Matrix x = Matrix::Random(3, 4, rng);
  Tape tape;
  Var out = tape.SpMM(sparse, tape.Constant(x));
  EXPECT_LT(MaxAbsDiff(out.value(), MatMul(sparse->ToDense(), x)), 1e-5f);
}

TEST(TapeTest, SoftmaxCrossEntropyOfUniformLogitsIsLogC) {
  Tape tape;
  Var logits = tape.Constant(Matrix(4, 5));  // All-zero logits.
  const std::vector<int> labels = {0, 1, 2, 3};
  Var loss = tape.SoftmaxCrossEntropy(logits, labels, {0, 1, 2, 3});
  EXPECT_NEAR(loss.value()(0, 0), std::log(5.0f), 1e-5f);
}

TEST(TapeTest, BceWithLogitsAtZeroIsLogTwo) {
  Tape tape;
  Var logits = tape.Constant(Matrix(3, 1));
  Var loss = tape.BceWithLogits(logits, {1.0f, 0.0f, 1.0f});
  EXPECT_NEAR(loss.value()(0, 0), std::log(2.0f), 1e-5f);
}

TEST(TapeTest, LinearCombinationValue) {
  Tape tape;
  Parameter coeff("c", Matrix(1, 2, {0.25f, 0.75f}));
  Var a = tape.Constant(Matrix(1, 1, {4.0f}));
  Var b = tape.Constant(Matrix(1, 1, {8.0f}));
  Var out = tape.LinearCombination({a, b}, tape.Leaf(coeff));
  EXPECT_NEAR(out.value()(0, 0), 7.0f, 1e-6f);
}

// A Constant feeds no Parameter, so nothing differentiates into it: the
// MatMul it reaches through Dropout skips dA = g * W^T (no tensor.gemm_tb
// call in the backward), while W's gradient is bitwise the one the same
// chain gives when the input is a differentiable Leaf.
TEST(TapeTest, ConstantInputGetsNoGradientAndWeightsKeepTheirs) {
  Rng init(5);
  const Matrix x = Matrix::Random(37, 12, init);
  const Matrix w0 = Matrix::Random(12, 9, init);
  const Matrix y = Matrix::Random(37, 9, init);
  struct Outcome {
    int64_t gemm_tb_calls = 0;
    Matrix w_grad;
    Matrix input_grad;
  };
  const auto run = [&](bool input_is_leaf) {
    Parameter w("w", w0);
    Parameter input("x", x);  // Only bound when input_is_leaf.
    Rng rng(6);
    Tape tape;
    Var in = input_is_leaf ? tape.Leaf(input) : tape.Constant(x);
    Var h = tape.MatMul(tape.Dropout(in, 0.3f, /*training=*/true, rng),
                        tape.Leaf(w));
    Var loss = tape.MseLoss(h, tape.Constant(y));
    w.ZeroGrad();
    ResetTelemetry();
    tape.Backward(loss);
    Outcome out;
    const TelemetrySnapshot snapshot = SnapshotTelemetry();
    const MetricStat* stat = snapshot.Find("tensor.gemm_tb");
    out.gemm_tb_calls = stat == nullptr ? 0 : stat->count;
    out.w_grad = w.grad;
    out.input_grad = in.grad();
    return out;
  };
  const bool saved = TelemetryEnabled();
  SetTelemetryEnabled(true);
  const Outcome constant = run(/*input_is_leaf=*/false);
  const Outcome leaf = run(/*input_is_leaf=*/true);
  SetTelemetryEnabled(saved);

  EXPECT_EQ(constant.gemm_tb_calls, 0);
  EXPECT_EQ(leaf.gemm_tb_calls, 1);
  ASSERT_TRUE(constant.w_grad.SameShape(leaf.w_grad));
  EXPECT_EQ(std::memcmp(constant.w_grad.data(), leaf.w_grad.data(),
                        sizeof(float) * constant.w_grad.size()),
            0);
  EXPECT_GT(constant.w_grad.SquaredNorm(), 0.0f);
  // Var::grad() of a node that needs no gradient still reads as zeros.
  EXPECT_EQ(constant.input_grad.SquaredNorm(), 0.0f);
  EXPECT_GT(leaf.input_grad.SquaredNorm(), 0.0f);
}

// needs_grad is the OR over an op's inputs: a constant operand of a
// two-input op gets no gradient, the Parameter operand gets the usual one.
TEST(TapeTest, MixedInputsRouteGradientToTheParameterOnly) {
  Parameter w("w", Matrix(1, 2, {1.0f, -2.0f}));
  Tape tape;
  Var c = tape.Constant(Matrix(1, 2, {3.0f, 5.0f}));
  Var sum = tape.Add(c, tape.Leaf(w));
  Var loss = tape.MseLoss(sum, tape.Constant(Matrix(1, 2)));
  w.ZeroGrad();
  tape.Backward(loss);
  // d/dw mean((c + w)^2) = (c + w).
  EXPECT_NEAR(w.grad.at(0, 0), 4.0f, 1e-6f);
  EXPECT_NEAR(w.grad.at(0, 1), 3.0f, 1e-6f);
  EXPECT_EQ(c.grad().SquaredNorm(), 0.0f);
}

}  // namespace
}  // namespace skipnode
