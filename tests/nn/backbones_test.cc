// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Backbone-specific semantics, beyond the generic (model x strategy) sweep:
// closed-form behaviours each architecture must satisfy.

#include <cmath>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "nn/appnp.h"
#include "nn/gcn.h"
#include "nn/gcnii.h"
#include "nn/gprgnn.h"
#include "nn/grand.h"
#include "nn/jknet.h"
#include "nn/sgc.h"
#include "tensor/ops.h"

namespace skipnode {
namespace {

Graph& TestGraph() {
  static Graph* const kGraph =
      new Graph(BuildDatasetByName("texas_like", 1.0, 4));
  return *kGraph;
}

ModelConfig BaseConfig(int layers = 3) {
  Graph& graph = TestGraph();
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 8;
  config.out_dim = graph.num_classes();
  config.num_layers = layers;
  config.dropout = 0.0f;  // Deterministic for the closed-form checks.
  return config;
}

Matrix EvalForward(Model& model, const StrategyConfig& strategy) {
  Rng rng(3);
  Tape tape;
  StrategyContext ctx(TestGraph(), strategy, /*training=*/false, rng);
  return model.Forward(tape, ctx, /*training=*/false, rng).logits.value();
}

TEST(GcnBackboneTest, TwoLayerMatchesHandRolledFormula) {
  // Eval-mode 2-layer GCN == A(A X W0 + b0)_+ W1 + b1, computed by hand.
  Graph& graph = TestGraph();
  Rng rng(1);
  GcnModel model(BaseConfig(2), rng);
  Matrix logits = EvalForward(model, StrategyConfig::None());

  std::vector<Parameter*> params = model.Parameters();
  ASSERT_EQ(params.size(), 4u);  // w0, b0, w1, b1.
  const Matrix dense_a = graph.normalized_adjacency()->ToDense();
  Matrix h = MatMul(graph.features(), params[0]->value);
  for (int r = 0; r < h.rows(); ++r) {
    for (int c = 0; c < h.cols(); ++c) h(r, c) += params[1]->value(0, c);
  }
  h = Relu(MatMul(dense_a, h));
  Matrix expected = MatMul(h, params[2]->value);
  for (int r = 0; r < expected.rows(); ++r) {
    for (int c = 0; c < expected.cols(); ++c) {
      expected(r, c) += params[3]->value(0, c);
    }
  }
  expected = MatMul(dense_a, expected);
  EXPECT_LT(MaxAbsDiff(logits, expected), 1e-3f);
}

TEST(GcnBackboneTest, ResidualVariantDiffersFromPlain) {
  Rng rng_a(2), rng_b(2);
  GcnModel plain(BaseConfig(4), rng_a);
  GcnModel residual(BaseConfig(4), rng_b, /*residual=*/true, "ResGCN");
  // Same init (same seed), different wiring -> different outputs.
  EXPECT_GT(MaxAbsDiff(EvalForward(plain, StrategyConfig::None()),
                       EvalForward(residual, StrategyConfig::None())),
            1e-4f);
}

TEST(JkNetBackboneTest, HeadConsumesAllLayerOutputs) {
  Rng rng(3);
  ModelConfig config = BaseConfig(5);
  JkNetModel model(config, rng);
  std::vector<Parameter*> params = model.Parameters();
  // 5 convs (w+b each) + head (w+b).
  ASSERT_EQ(params.size(), 12u);
  // Head input width = L * hidden.
  Parameter* head_weight = params[10];
  EXPECT_EQ(head_weight->value.rows(), 5 * config.hidden_dim);
  EXPECT_EQ(head_weight->value.cols(), config.out_dim);
}

TEST(SgcBackboneTest, OutputIsLinearInPropagatedFeatures) {
  // SGC logits = (A^K X) W + b: doubling W - b must double logits - b... we
  // verify linearity directly: logits(2W, 2b) = 2 * logits(W, b).
  Rng rng(4);
  SgcModel model(BaseConfig(3), rng);
  Matrix before = EvalForward(model, StrategyConfig::None());
  for (Parameter* p : model.Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) p->value.data()[i] *= 2.0f;
  }
  Matrix after = EvalForward(model, StrategyConfig::None());
  EXPECT_LT(MaxAbsDiff(after, Scale(before, 2.0f)), 1e-3f);
}

TEST(AppnpBackboneTest, ZeroAlphaIsPurePropagation) {
  // With alpha = 0 the propagation is Z = A^K MLP(X): applying one more
  // hand-rolled A-multiplication to a (K-1)-step model matches the K-step
  // model exactly.
  Rng rng_a(5), rng_b(5);
  ModelConfig config_k = BaseConfig(4);
  config_k.alpha = 0.0f;
  ModelConfig config_km1 = config_k;
  config_km1.num_layers = 3;
  AppnpModel model_k(config_k, rng_a);
  AppnpModel model_km1(config_km1, rng_b);

  Matrix z_k = EvalForward(model_k, StrategyConfig::None());
  Matrix z_km1 = EvalForward(model_km1, StrategyConfig::None());
  Matrix propagated =
      MatMul(TestGraph().normalized_adjacency()->ToDense(), z_km1);
  EXPECT_LT(MaxAbsDiff(z_k, propagated), 1e-3f);
}

TEST(AppnpBackboneTest, TeleportKeepsOutputNearMlpForLargeAlpha) {
  // alpha = 1 collapses the propagation to Z = H (the MLP output) at every
  // step.
  Rng rng_a(6), rng_b(6);
  ModelConfig deep = BaseConfig(10);
  deep.alpha = 1.0f;
  ModelConfig shallow = BaseConfig(1);
  shallow.alpha = 1.0f;
  AppnpModel model_deep(deep, rng_a);
  AppnpModel model_shallow(shallow, rng_b);
  EXPECT_LT(MaxAbsDiff(EvalForward(model_deep, StrategyConfig::None()),
                       EvalForward(model_shallow, StrategyConfig::None())),
            1e-4f);
}

TEST(GprGnnBackboneTest, GammasInitialiseToPprProfile) {
  Rng rng(7);
  ModelConfig config = BaseConfig(4);
  config.alpha = 0.2f;
  GprGnnModel model(config, rng);
  Parameter* gammas = model.Parameters().back();
  ASSERT_EQ(gammas->value.cols(), 5);
  double total = 0.0;
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(gammas->value(0, k), 0.2f * std::pow(0.8f, k), 1e-5f);
    total += gammas->value(0, k);
  }
  EXPECT_NEAR(gammas->value(0, 4), std::pow(0.8f, 4), 1e-5f);
  total += gammas->value(0, 4);
  EXPECT_NEAR(total, 1.0, 1e-5);  // The PPR profile sums to 1.
}

TEST(GcniiBackboneTest, IdentityMappingStrengthDecaysWithDepth) {
  // beta_l = log(lambda/l + 1) must decrease in l; verified indirectly: with
  // lambda -> 0, every layer reduces to M (no W contribution), so zeroing
  // all conv weights must not change the output.
  Rng rng(8);
  ModelConfig config = BaseConfig(4);
  config.gcnii_lambda = 0.0f;
  GcniiModel model(config, rng);
  Matrix before = EvalForward(model, StrategyConfig::None());
  for (Parameter* p : model.Parameters()) {
    if (p->name.find(".conv") != std::string::npos) p->value.SetZero();
  }
  Matrix after = EvalForward(model, StrategyConfig::None());
  EXPECT_LT(MaxAbsDiff(before, after), 1e-4f);
}

TEST(GrandBackboneTest, EvalUsesSingleViewAndNoDrop) {
  Rng rng_a(9), rng_b(9);
  ModelConfig one_view = BaseConfig(3);
  one_view.grand_augmentations = 1;
  one_view.grand_dropnode = 0.0f;
  ModelConfig many_views = BaseConfig(3);
  many_views.grand_augmentations = 4;
  many_views.grand_dropnode = 0.5f;
  GrandModel a(one_view, rng_a);
  GrandModel b(many_views, rng_b);
  // Same seed init; at eval time the augmentation settings are inert.
  EXPECT_LT(MaxAbsDiff(EvalForward(a, StrategyConfig::None()),
                       EvalForward(b, StrategyConfig::None())),
            1e-5f);
}

TEST(GrandBackboneTest, ConsistencyLossIsNonNegativeAndWeighted) {
  Graph& graph = TestGraph();
  Rng rng(10);
  ModelConfig config = BaseConfig(3);
  config.grand_augmentations = 3;
  config.grand_consistency = 2.0f;
  config.grand_dropnode = 0.5f;
  GrandModel model(config, rng);
  Tape tape;
  StrategyContext ctx(graph, StrategyConfig::None(), true, rng);
  const ForwardResult pass = model.Forward(tape, ctx, true, rng);
  EXPECT_EQ(pass.views.size(), 3u);
  Var aux = model.AuxiliaryLoss(tape, pass);
  ASSERT_TRUE(aux.valid());
  EXPECT_GE(aux.value()(0, 0), 0.0f);
}

}  // namespace
}  // namespace skipnode
