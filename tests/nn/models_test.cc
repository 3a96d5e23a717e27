// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Backbone-model property tests, parameterised over every (model, strategy)
// combination: output shapes, determinism, finiteness, strategy
// compatibility, and that a few steps of training reduce the loss.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "nn/incepgcn.h"
#include "nn/model_factory.h"
#include "tensor/ops.h"
#include "train/optimizer.h"

namespace skipnode {
namespace {

Graph& TestGraph() {
  static Graph* const kGraph =
      new Graph(BuildDatasetByName("cornell_like", 1.0, 11));
  return *kGraph;
}

ModelConfig SmallConfig(const Graph& graph) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.gat_heads = 4;
  config.out_dim = graph.num_classes();
  config.num_layers = 4;
  config.dropout = 0.3f;
  return config;
}

std::vector<StrategyConfig> AllStrategies() {
  return {StrategyConfig::None(),          StrategyConfig::DropEdge(0.3f),
          StrategyConfig::DropNode(0.3f),  StrategyConfig::PairNorm(1.0f),
          StrategyConfig::SkipConnection(), StrategyConfig::SkipNodeU(0.5f),
          StrategyConfig::SkipNodeB(0.5f)};
}

struct ModelStrategyCase {
  std::string model;
  StrategyConfig strategy;
};

class ModelStrategyTest : public ::testing::TestWithParam<ModelStrategyCase> {
};

TEST_P(ModelStrategyTest, ForwardShapeAndFiniteness) {
  const auto& param = GetParam();
  Graph& graph = TestGraph();
  Rng rng(1);
  auto model = MakeModel(param.model, SmallConfig(graph), rng);

  for (const bool training : {true, false}) {
    Tape tape;
    StrategyContext ctx(graph, param.strategy, training, rng);
    Var logits = model->Forward(tape, ctx, training, rng);
    ASSERT_EQ(logits.rows(), graph.num_nodes());
    ASSERT_EQ(logits.cols(), graph.num_classes());
    for (int64_t i = 0; i < logits.value().size(); ++i) {
      ASSERT_TRUE(std::isfinite(logits.value().data()[i]))
          << param.model << " training=" << training;
    }
    ASSERT_FALSE(model->Penultimate().empty());
  }
}

TEST_P(ModelStrategyTest, FewStepsReduceTrainingLoss) {
  const auto& param = GetParam();
  Graph& graph = TestGraph();
  Rng rng(2);
  auto model = MakeModel(param.model, SmallConfig(graph), rng);
  const std::vector<Parameter*> params = model->Parameters();
  ASSERT_FALSE(params.empty());

  std::vector<int> train_nodes;
  for (int i = 0; i < graph.num_nodes(); i += 2) train_nodes.push_back(i);

  Adam optimizer(0.02f, 0.0f);
  // Per-step losses are stochastic (dropout, strategy sampling); compare a
  // window average at the start against one at the end.
  constexpr int kSteps = 30;
  std::vector<float> losses;
  for (int step = 0; step < kSteps; ++step) {
    Tape tape;
    StrategyContext ctx(graph, param.strategy, /*training=*/true, rng);
    Var logits = model->Forward(tape, ctx, /*training=*/true, rng);
    Var loss = tape.SoftmaxCrossEntropy(logits, graph.labels(), train_nodes);
    Var aux = model->AuxiliaryLoss(tape);
    if (aux.valid()) loss = tape.Add(loss, aux);
    losses.push_back(loss.value()(0, 0));
    Optimizer::ZeroGrad(params);
    tape.Backward(loss);
    optimizer.Step(params);
  }
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int i = 0; i < 5; ++i) {
    first_loss += losses[i] / 5.0f;
    last_loss += losses[kSteps - 1 - i] / 5.0f;
  }
  EXPECT_LT(last_loss, first_loss)
      << param.model << " with " << StrategyName(param.strategy.kind);
}

std::vector<ModelStrategyCase> AllCases() {
  std::vector<ModelStrategyCase> cases;
  for (const std::string& model : AllModelNames()) {
    for (const StrategyConfig& strategy : AllStrategies()) {
      // SGC has no trainable propagation; skip strategies needing gradients
      // through skips is still fine — keep all combinations.
      cases.push_back({model, strategy});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllStrategies, ModelStrategyTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<ModelStrategyCase>& info) {
      std::string name =
          info.param.model + "_" + StrategyName(info.param.strategy.kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ModelFactoryTest, KnowsAllNames) {
  EXPECT_EQ(AllModelNames().size(), 10u);
  Rng rng(3);
  for (const std::string& name : AllModelNames()) {
    auto model = MakeModel(name, SmallConfig(TestGraph()), rng);
    EXPECT_EQ(model->name(), name);
  }
}

TEST(ModelDeterminismTest, SameSeedSameLogits) {
  Graph& graph = TestGraph();
  for (const std::string& name : AllModelNames()) {
    Rng rng_a(7), rng_b(7);
    auto model_a = MakeModel(name, SmallConfig(graph), rng_a);
    auto model_b = MakeModel(name, SmallConfig(graph), rng_b);
    Tape tape_a, tape_b;
    Rng fwd_a(9), fwd_b(9);
    StrategyContext ctx_a(graph, StrategyConfig::SkipNodeU(0.5f), true,
                          fwd_a);
    StrategyContext ctx_b(graph, StrategyConfig::SkipNodeU(0.5f), true,
                          fwd_b);
    Var la = model_a->Forward(tape_a, ctx_a, true, fwd_a);
    Var lb = model_b->Forward(tape_b, ctx_b, true, fwd_b);
    float max_diff = 0.0f;
    for (int64_t i = 0; i < la.value().size(); ++i) {
      max_diff = std::max(
          max_diff, std::fabs(la.value().data()[i] - lb.value().data()[i]));
    }
    EXPECT_LT(max_diff, 1e-6f) << name;
  }
}

TEST(ModelDepthTest, DeepModelsBuildAndRun) {
  Graph& graph = TestGraph();
  ModelConfig config = SmallConfig(graph);
  config.num_layers = 16;
  Rng rng(5);
  for (const std::string& name : {"GCN", "ResGCN", "JKNet", "GCNII"}) {
    auto model = MakeModel(name, config, rng);
    Tape tape;
    StrategyContext ctx(graph, StrategyConfig::SkipNodeU(0.5f), true, rng);
    Var logits = model->Forward(tape, ctx, true, rng);
    EXPECT_EQ(logits.cols(), graph.num_classes()) << name;
  }
}

TEST(IncepGcnTest, BranchDepthsScaleWithBudget) {
  EXPECT_EQ(IncepGcnModel::BranchDepths(4), (std::vector<int>{1, 1, 3}));
  EXPECT_EQ(IncepGcnModel::BranchDepths(9), (std::vector<int>{2, 4, 8}));
  EXPECT_EQ(IncepGcnModel::BranchDepths(2), (std::vector<int>{1, 1, 1}));
}

TEST(GrandTest, AuxiliaryLossPresentOnlyWhenTraining) {
  Graph& graph = TestGraph();
  Rng rng(6);
  ModelConfig config = SmallConfig(graph);
  config.grand_augmentations = 2;
  auto model = MakeModel("GRAND", config, rng);

  Tape train_tape;
  StrategyContext train_ctx(graph, StrategyConfig::None(), true, rng);
  model->Forward(train_tape, train_ctx, true, rng);
  EXPECT_TRUE(model->AuxiliaryLoss(train_tape).valid());

  Tape eval_tape;
  StrategyContext eval_ctx(graph, StrategyConfig::None(), false, rng);
  model->Forward(eval_tape, eval_ctx, false, rng);
  EXPECT_FALSE(model->AuxiliaryLoss(eval_tape).valid());
}

// Over an unmasked batch whose fanout covers every neighborhood, the blocks
// are exact slices of A_hat, so a batch forward reproduces the full-graph
// eval logits on the seed rows. Not bitwise: a block row stores its self
// entry first, so the SpMM sums in a different order.
TEST(BatchForwardTest, FullFanoutBatchMatchesFullGraphOnSeeds) {
  Graph& graph = TestGraph();
  const ModelConfig config = SmallConfig(graph);
  const std::vector<int> seeds = {3, 0, 17, 42, 8, 29};
  for (const std::string name : {"GCN", "ResGCN"}) {
    Rng rng(4);
    auto model = MakeModel(name, config, rng);
    Tape full_tape;
    StrategyContext full_ctx(graph, StrategyConfig::None(), false, rng);
    const Matrix full =
        model->Forward(full_tape, full_ctx, false, rng).value();

    NeighborSampler sampler(
        graph, {std::vector<int>(static_cast<size_t>(config.num_layers),
                                 graph.num_nodes())});
    const SampledBatch batch = sampler.SampleBlocks(seeds, 5, nullptr);
    Tape tape;
    StrategyContext ctx(graph, batch, StrategyConfig::None(), rng);
    const Matrix sampled = model->Forward(tape, ctx, false, rng).value();
    EXPECT_LT(MaxAbsDiff(sampled, GatherRows(full, seeds)), 1e-5f) << name;
  }
}

// Penultimate() is the full-graph representation the smoothness metrics
// and the serving tables read; a minibatch pass must not overwrite it.
TEST(BatchForwardTest, BatchForwardLeavesPenultimateUntouched) {
  Graph& graph = TestGraph();
  const ModelConfig config = SmallConfig(graph);
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  Rng rng(5);
  auto model = MakeModel("GCN", config, rng);
  Tape full_tape;
  StrategyContext full_ctx(graph, strategy, false, rng);
  model->Forward(full_tape, full_ctx, false, rng);
  const Matrix penultimate = model->Penultimate();

  NeighborSampler sampler(graph, {{3, 3, 3, 3}});
  const SampledBatch batch = sampler.SampleBlocks(
      {1, 2, 3}, 6,
      MakeSampledSkipMaskFn(graph, strategy, config.num_layers, rng));
  Tape tape;
  StrategyContext ctx(graph, batch, strategy, rng);
  EXPECT_EQ(model->Forward(tape, ctx, true, rng).rows(), 3);
  ASSERT_EQ(model->Penultimate().rows(), penultimate.rows());
  EXPECT_EQ(MaxAbsDiff(model->Penultimate(), penultimate), 0.0f);
}

}  // namespace
}  // namespace skipnode
