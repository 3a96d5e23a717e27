// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Property tests: every differentiable op's analytic gradient matches
// central finite differences. Parameterised over ops so each op is a
// distinct case sharing one harness.

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/tape.h"
#include "tensor/ops.h"
#include "testing/coo_matrix.h"

namespace skipnode {
namespace {

constexpr float kEpsilon = 1e-2f;
constexpr float kRelTolerance = 3e-2f;
constexpr float kAbsTolerance = 2e-2f;

// Builds an op output from the leaf of the parameter under test; the harness
// turns it into a scalar via MseLoss against a fixed target.
using OpBuilder = std::function<Var(Tape&, Var leaf)>;

struct OpCase {
  std::string name;
  int param_rows;
  int param_cols;
  OpBuilder build;
};

class OpGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradTest, AnalyticMatchesNumeric) {
  const OpCase& op_case = GetParam();
  Rng rng(1234);
  Parameter param("p", Matrix::Random(op_case.param_rows, op_case.param_cols,
                                      rng, -1.0f, 1.0f));
  // Avoid ReLU kinks and PairNorm degeneracy at exactly zero.
  for (int64_t i = 0; i < param.value.size(); ++i) {
    float& v = param.value.data()[i];
    if (std::fabs(v) < 0.05f) v = v < 0 ? -0.05f : 0.05f;
  }
  Rng target_rng(99);
  const Matrix target = [&]() {
    Tape probe;
    Var out = op_case.build(probe, probe.Leaf(param));
    return Matrix::Random(out.rows(), out.cols(), target_rng);
  }();

  const auto loss_fn = [&]() {
    Tape tape;
    Var out = op_case.build(tape, tape.Leaf(param));
    Var loss = tape.MseLoss(out, tape.Constant(target));
    return loss.value()(0, 0);
  };

  // Analytic gradient.
  {
    Tape tape;
    Var out = op_case.build(tape, tape.Leaf(param));
    Var loss = tape.MseLoss(out, tape.Constant(target));
    param.ZeroGrad();
    tape.Backward(loss);
  }

  const GradCheckResult result = CheckGradient(loss_fn, param, kEpsilon);
  EXPECT_LT(result.max_abs_error, kAbsTolerance) << op_case.name;
  EXPECT_LT(result.max_rel_error, kRelTolerance) << op_case.name;
}

std::vector<OpCase> MakeOpCases() {
  std::vector<OpCase> cases;
  Rng shared_rng(7);
  // Shared fixed operands (captured by value in the builders).
  const Matrix rhs = Matrix::Random(4, 3, shared_rng);
  const Matrix lhs = Matrix::Random(5, 3, shared_rng);
  const Matrix same_shape = Matrix::Random(3, 4, shared_rng);
  const auto sparse = std::make_shared<CsrMatrix>(testing::CsrFromCoo(
      3, 3, {{0, 0}, {0, 1}, {1, 2}, {2, 0}, {2, 2}},
      {0.5f, -1.0f, 2.0f, 1.5f, 0.25f}));

  cases.push_back({"MatMulLhs", 3, 4, [rhs](Tape& t, Var leaf) {
                     return t.MatMul(leaf, t.Constant(rhs));
                   }});
  cases.push_back({"MatMulRhs", 3, 4, [lhs](Tape& t, Var leaf) {
                     return t.MatMul(t.Constant(lhs), leaf);
                   }});
  cases.push_back({"SpMM", 3, 4, [sparse](Tape& t, Var leaf) {
                     return t.SpMM(sparse, leaf);
                   }});
  // Row 1 is never computed and stays zero, so no gradient may leave it.
  cases.push_back({"SpMMUnreadRows", 3, 4, [sparse](Tape& t, Var leaf) {
                     return t.SpMM(sparse, leaf, {0, 1, 0});
                   }});
  cases.push_back({"Add", 3, 4, [same_shape](Tape& t, Var leaf) {
                     return t.Add(leaf, t.Constant(same_shape));
                   }});
  cases.push_back({"Axpby", 3, 4, [same_shape](Tape& t, Var leaf) {
                     return t.Axpby(leaf, t.Constant(same_shape), 0.3f, 1.7f);
                   }});
  cases.push_back({"Scale", 3, 4, [](Tape& t, Var leaf) {
                     return t.Scale(leaf, -2.5f);
                   }});
  cases.push_back({"Relu", 3, 4, [](Tape& t, Var leaf) {
                     return t.Relu(leaf);
                   }});
  cases.push_back({"AddRowBroadcastBias", 1, 4, [same_shape](Tape& t,
                                                             Var leaf) {
                     return t.AddRowBroadcast(t.Constant(same_shape), leaf);
                   }});
  cases.push_back({"AddRowBroadcastInput", 3, 4, [](Tape& t, Var leaf) {
                     Matrix bias(1, 4, {0.1f, -0.2f, 0.3f, -0.4f});
                     return t.AddRowBroadcast(leaf, t.Constant(bias));
                   }});
  cases.push_back({"ConcatCols", 3, 2, [same_shape](Tape& t, Var leaf) {
                     return t.ConcatCols({leaf, t.Constant(same_shape), leaf});
                   }});
  cases.push_back(
      {"LinearCombinationParts", 3, 4, [same_shape](Tape& t, Var leaf) {
         Matrix coeff(1, 2, {0.6f, -1.2f});
         return t.LinearCombination({leaf, t.Constant(same_shape)},
                                    t.Constant(coeff));
       }});
  cases.push_back(
      {"LinearCombinationCoeffs", 1, 3, [same_shape](Tape& t, Var leaf) {
         Var a = t.Constant(same_shape);
         Var b = t.Scale(a, 0.5f);
         Var c = t.Scale(a, -1.0f);
         return t.LinearCombination({a, b, c}, leaf);
       }});
  cases.push_back({"GatherRows", 4, 3, [](Tape& t, Var leaf) {
                     return t.GatherRows(leaf, {2, 0, 2, 3});
                   }});
  cases.push_back({"RowDotsLhs", 4, 3, [](Tape& t, Var leaf) {
                     Rng r(3);
                     return t.RowDots(leaf, t.Constant(Matrix::Random(4, 3, r)));
                   }});
  cases.push_back({"RowSelectSkipped", 3, 4, [same_shape](Tape& t, Var leaf) {
                     return t.RowSelect({1, 0, 1}, leaf,
                                        t.Constant(same_shape));
                   }});
  cases.push_back({"RowSelectConvolved", 3, 4,
                   [same_shape](Tape& t, Var leaf) {
                     return t.RowSelect({1, 0, 1}, t.Constant(same_shape),
                                        leaf);
                   }});
  cases.push_back({"PairNorm", 4, 3, [](Tape& t, Var leaf) {
                     return t.PairNorm(leaf, 1.5f);
                   }});
  // Attention pattern for the GatAggregate cases: a 4-node graph with self
  // loops (values irrelevant).
  const auto gat_pattern = std::make_shared<CsrMatrix>(testing::CsrFromCoo(
      4, 4,
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 3},
       {3, 0}, {0, 3}},
      std::vector<float>(10, 1.0f)));
  Rng gat_rng(21);
  const Matrix gat_h = Matrix::Random(4, 3, gat_rng);
  const Matrix gat_src = Matrix::Random(4, 1, gat_rng);
  const Matrix gat_dst = Matrix::Random(4, 1, gat_rng);
  cases.push_back({"GatAggregateH", 4, 3,
                   [gat_pattern, gat_src, gat_dst](Tape& t, Var leaf) {
                     return t.GatAggregate(gat_pattern, leaf,
                                           t.Constant(gat_src),
                                           t.Constant(gat_dst));
                   }});
  cases.push_back({"GatAggregateSrc", 4, 1,
                   [gat_pattern, gat_h, gat_dst](Tape& t, Var leaf) {
                     return t.GatAggregate(gat_pattern, t.Constant(gat_h),
                                           leaf, t.Constant(gat_dst));
                   }});
  cases.push_back({"GatAggregateDst", 4, 1,
                   [gat_pattern, gat_h, gat_src](Tape& t, Var leaf) {
                     return t.GatAggregate(gat_pattern, t.Constant(gat_h),
                                           t.Constant(gat_src), leaf);
                   }});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradTest,
                         ::testing::ValuesIn(MakeOpCases()),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return info.param.name;
                         });

// Loss ops produce the scalar directly; separate harness.

TEST(LossGradTest, SoftmaxCrossEntropy) {
  Rng rng(11);
  Parameter logits("logits", Matrix::Random(5, 3, rng, -1.0f, 1.0f));
  const std::vector<int> labels = {0, 2, 1, 1, 0};
  const std::vector<int> nodes = {0, 1, 3, 4};

  const auto loss_fn = [&]() {
    Tape tape;
    return tape.SoftmaxCrossEntropy(tape.Leaf(logits), labels, nodes)
        .value()(0, 0);
  };
  {
    Tape tape;
    Var loss = tape.SoftmaxCrossEntropy(tape.Leaf(logits), labels, nodes);
    logits.ZeroGrad();
    tape.Backward(loss);
  }
  const GradCheckResult result = CheckGradient(loss_fn, logits, kEpsilon);
  EXPECT_LT(result.max_abs_error, kAbsTolerance);
  EXPECT_LT(result.max_rel_error, kRelTolerance);
}

TEST(LossGradTest, BceWithLogits) {
  Rng rng(12);
  Parameter logits("logits", Matrix::Random(6, 1, rng, -2.0f, 2.0f));
  const std::vector<float> targets = {1, 0, 1, 1, 0, 0};

  const auto loss_fn = [&]() {
    Tape tape;
    return tape.BceWithLogits(tape.Leaf(logits), targets).value()(0, 0);
  };
  {
    Tape tape;
    Var loss = tape.BceWithLogits(tape.Leaf(logits), targets);
    logits.ZeroGrad();
    tape.Backward(loss);
  }
  const GradCheckResult result = CheckGradient(loss_fn, logits, kEpsilon);
  EXPECT_LT(result.max_abs_error, kAbsTolerance);
  EXPECT_LT(result.max_rel_error, kRelTolerance);
}

TEST(LossGradTest, MseBothSides) {
  Rng rng(13);
  Parameter a("a", Matrix::Random(3, 3, rng));
  Matrix b_val = Matrix::Random(3, 3, rng);

  const auto loss_fn = [&]() {
    Tape tape;
    Var loss = tape.MseLoss(tape.Leaf(a), tape.Constant(b_val));
    return loss.value()(0, 0);
  };
  {
    Tape tape;
    Var loss = tape.MseLoss(tape.Leaf(a), tape.Constant(b_val));
    a.ZeroGrad();
    tape.Backward(loss);
  }
  const GradCheckResult result = CheckGradient(loss_fn, a, kEpsilon);
  EXPECT_LT(result.max_rel_error, kRelTolerance);
}

// Dropout cannot be finite-difference checked (stochastic), but its backward
// mask must match its forward mask: zeroed outputs receive zero gradient and
// kept outputs receive the scaled gradient.
TEST(LossGradTest, DropoutBackwardUsesForwardMask) {
  Rng rng(14);
  Parameter x("x", Matrix::Ones(8, 8));
  Tape tape;
  Var leaf = tape.Leaf(x);
  Var dropped = tape.Dropout(leaf, 0.5f, /*training=*/true, rng);
  Var loss = tape.MseLoss(dropped, tape.Constant(Matrix(8, 8)));
  x.ZeroGrad();
  tape.Backward(loss);
  for (int64_t i = 0; i < x.value.size(); ++i) {
    const float out = dropped.value().data()[i];
    const float grad = x.grad.data()[i];
    if (out == 0.0f) {
      EXPECT_EQ(grad, 0.0f);
    } else {
      EXPECT_NE(grad, 0.0f);
    }
  }
}

}  // namespace
}  // namespace skipnode
