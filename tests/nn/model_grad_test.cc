// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end gradient checks: the full model forward + cross-entropy loss
// against central finite differences, for a representative parameter of
// several backbones (deterministic configuration: dropout off, strategies
// either off or with frozen sampling).

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "graph/datasets.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/gcnii.h"
#include "nn/gprgnn.h"
#include "train/optimizer.h"

namespace skipnode {
namespace {

constexpr float kEpsilon = 3e-3f;

Graph TinyGraph() { return BuildDatasetByName("texas_like", 0.4, 21); }

ModelConfig TinyConfig(const Graph& graph) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 6;
  config.out_dim = graph.num_classes();
  config.num_layers = 3;
  config.dropout = 0.0f;  // Deterministic forward for finite differences.
  return config;
}

// Checks every parameter of `model` (sampling would hide broken ops).
void CheckModelGradients(Model& model, const Graph& graph,
                         const StrategyConfig& strategy,
                         float tolerance_factor = 0.05f) {
  // Zero-initialised biases leave some ReLU pre-activations *exactly* at the
  // kink (dead-neighbourhood rows), where the analytic subgradient (0) and
  // central differences legitimately disagree. Randomising the biases moves
  // every pre-activation off the kink so finite differences are meaningful.
  {
    Rng bias_rng(31337);
    for (Parameter* param : model.Parameters()) {
      if (param->name.find(".bias") == std::string::npos) continue;
      for (int64_t i = 0; i < param->value.size(); ++i) {
        param->value.data()[i] = bias_rng.UniformFloat(0.05f, 0.30f);
      }
    }
  }
  std::vector<int> train_nodes;
  for (int i = 0; i < graph.num_nodes(); i += 3) train_nodes.push_back(i);

  const auto loss_fn = [&]() {
    // Fixed seed so DropEdge-style strategies resample identically; rho = 0
    // strategies are unaffected.
    Rng rng(555);
    Tape tape;
    StrategyContext ctx(graph, strategy, /*training=*/false, rng);
    Var logits = model.Forward(tape, ctx, /*training=*/false, rng).logits;
    return tape.SoftmaxCrossEntropy(logits, graph.labels(), train_nodes)
        .value()(0, 0);
  };

  // Analytic gradients.
  {
    Rng rng(555);
    Tape tape;
    StrategyContext ctx(graph, strategy, /*training=*/false, rng);
    Var logits = model.Forward(tape, ctx, /*training=*/false, rng).logits;
    Var loss = tape.SoftmaxCrossEntropy(logits, graph.labels(), train_nodes);
    ZeroGrad(model.Parameters());
    tape.Backward(loss);
  }

  for (Parameter* param : model.Parameters()) {
    const GradCheckResult result = CheckGradient(loss_fn, *param, kEpsilon);
    // Central differences through stacked ReLUs suffer kink-crossing error
    // (it shrinks linearly with epsilon, unlike a genuine gradient bug, and
    // inflates per-entry *relative* error on near-zero entries). Judge the
    // match on the absolute error against the gradient's own scale.
    EXPECT_LT(result.max_abs_error,
              tolerance_factor * (param->grad.AbsMax() + 2e-3f))
        << param->name;
  }
}

TEST(ModelGradTest, GcnAllParameters) {
  Graph graph = TinyGraph();
  Rng rng(1);
  GcnModel model(TinyConfig(graph), rng);
  CheckModelGradients(model, graph, StrategyConfig::None());
}

TEST(ModelGradTest, GcnWithPairNorm) {
  Graph graph = TinyGraph();
  Rng rng(2);
  GcnModel model(TinyConfig(graph), rng);
  // PairNorm's row-norm clamp adds another non-smooth point, so finite
  // differences are noisier here.
  CheckModelGradients(model, graph, StrategyConfig::PairNorm(1.0f), 0.15f);
}

TEST(ModelGradTest, ResGcn) {
  Graph graph = TinyGraph();
  Rng rng(3);
  GcnModel model(TinyConfig(graph), rng, /*residual=*/true, "ResGCN");
  CheckModelGradients(model, graph, StrategyConfig::None());
}

TEST(ModelGradTest, GatAllParameters) {
  Graph graph = TinyGraph();
  Rng rng(9);
  ModelConfig config = TinyConfig(graph);
  config.gat_heads = 2;
  GatModel model(config, rng);
  // The attention softmax smooths the loss surface; the LeakyReLU kink adds
  // a little noise on top of the ReLU stack's.
  CheckModelGradients(model, graph, StrategyConfig::None(), 0.10f);
}

TEST(ModelGradTest, Gcnii) {
  Graph graph = TinyGraph();
  Rng rng(4);
  GcniiModel model(TinyConfig(graph), rng);
  CheckModelGradients(model, graph, StrategyConfig::None());
}

TEST(ModelGradTest, GprGnnIncludingGammas) {
  Graph graph = TinyGraph();
  Rng rng(5);
  GprGnnModel model(TinyConfig(graph), rng);
  CheckModelGradients(model, graph, StrategyConfig::None());
}

}  // namespace
}  // namespace skipnode
