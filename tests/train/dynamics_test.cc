// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/dynamics.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "nn/model_factory.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

struct Fixture {
  Graph graph;
  Split split;

  Fixture()
      : graph(BuildDatasetByName("cornell_like", 1.0, 9)),
        split([this]() {
          Rng rng(9);
          return RandomSplit(graph, 0.6, 0.2, rng);
        }()) {}
};

ModelConfig SmallConfig(const Graph& graph) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 12;
  config.out_dim = graph.num_classes();
  config.num_layers = 4;
  config.dropout = 0.2f;
  return config;
}

TEST(DynamicsTest, RecordsOneEntryPerEpochInEverySeries) {
  Fixture f;
  Rng rng(1);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 7;
  const DynamicsRecord record = TrainWithDynamics(
      *model, f.graph, f.split, StrategyConfig::None(), options);
  EXPECT_EQ(record.mad.size(), 7u);
  EXPECT_EQ(record.output_gradient_norm.size(), 7u);
  EXPECT_EQ(record.output_gradient_signed_sum.size(), 7u);
  EXPECT_EQ(record.first_layer_gradient_norm.size(), 7u);
  EXPECT_EQ(record.weight_norm.size(), 7u);
  EXPECT_EQ(record.train_loss.size(), 7u);
  EXPECT_EQ(record.val_accuracy.size(), 7u);
}

TEST(DynamicsTest, AllSeriesAreFiniteAndSigned) {
  Fixture f;
  Rng rng(2);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 10;
  const DynamicsRecord record = TrainWithDynamics(
      *model, f.graph, f.split, StrategyConfig::SkipNodeU(0.5f), options);
  for (size_t e = 0; e < record.mad.size(); ++e) {
    EXPECT_TRUE(std::isfinite(record.mad[e]));
    EXPECT_GE(record.mad[e], 0.0f);
    EXPECT_GE(record.output_gradient_norm[e], 0.0f);
    EXPECT_GE(record.first_layer_gradient_norm[e], 0.0f);
    EXPECT_GT(record.weight_norm[e], 0.0f);
    EXPECT_GE(record.val_accuracy[e], 0.0f);
    EXPECT_LE(record.val_accuracy[e], 1.0f);
  }
}

TEST(DynamicsTest, ShallowTrainingShowsLearning) {
  Fixture f;
  Rng rng(3);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 40;
  options.weight_decay = 0.0f;
  const DynamicsRecord record = TrainWithDynamics(
      *model, f.graph, f.split, StrategyConfig::None(), options);
  // Loss falls substantially from the first epoch to the last.
  EXPECT_LT(record.train_loss.back(), record.train_loss.front());
  // Gradient actually reaches the first layer on a shallow model.
  EXPECT_GT(record.first_layer_gradient_norm.front(), 0.0f);
}

TEST(DynamicsTest, WeightDecayShrinksWeightNormSeries) {
  Fixture f;
  Rng rng(4);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 30;
  options.weight_decay = 5e-2f;  // Aggressive decay dominates learning.
  const DynamicsRecord record = TrainWithDynamics(
      *model, f.graph, f.split, StrategyConfig::None(), options);
  EXPECT_LT(record.weight_norm.back(), record.weight_norm.front());
}

TEST(DynamicsTest, SignedSumIsSmallWithBalancedTraining) {
  // Theorem 1's cancellation needs class-balanced training rows; the
  // stratified 60% split is close to balanced, so the signed sum is small
  // relative to the gradient norm at every epoch.
  Fixture f;
  Rng rng(5);
  auto model = MakeModel("GCN", SmallConfig(f.graph), rng);
  TrainOptions options;
  options.epochs = 5;
  const DynamicsRecord record = TrainWithDynamics(
      *model, f.graph, f.split, StrategyConfig::None(), options);
  for (size_t e = 0; e < record.mad.size(); ++e) {
    EXPECT_LT(std::fabs(record.output_gradient_signed_sum[e]),
              0.5f * record.output_gradient_norm[e] + 1e-4f);
  }
}

std::string Bytes(const std::vector<float>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(float));
}

std::string ParameterBytes(Model& model) {
  std::string bytes;
  for (const Parameter* p : model.Parameters()) {
    bytes.append(reinterpret_cast<const char*>(p->value.data()),
                 static_cast<size_t>(p->value.size()) * sizeof(float));
  }
  return bytes;
}

// TrainWithDynamics is a view over TrainNodeClassifier's loop, not a copy of
// it: at the same seed it trains the same trajectory bit for bit, so the
// Figure-2 series describe exactly the runs the other benches train.
TEST(DynamicsTest, SeriesAndWeightsMatchTrainNodeClassifierBitwise) {
  Fixture f;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  TrainOptions options;
  options.epochs = 12;
  options.seed = 5;

  Rng dynamics_rng(6);
  auto dynamics_model = MakeModel("GCN", SmallConfig(f.graph), dynamics_rng);
  const DynamicsRecord record =
      TrainWithDynamics(*dynamics_model, f.graph, f.split, strategy, options);

  Rng classifier_rng(6);
  auto classifier_model =
      MakeModel("GCN", SmallConfig(f.graph), classifier_rng);
  std::vector<float> train_loss;
  std::vector<float> val_accuracy;
  TrainRun run{.options = options,
               .on_epoch = [&](int, double loss, double val, double) {
                 train_loss.push_back(static_cast<float>(loss));
                 val_accuracy.push_back(static_cast<float>(val));
               }};
  run.options.eval_every = 1;
  TrainNodeClassifier(*classifier_model, f.graph, f.split, strategy, run);

  ASSERT_EQ(record.train_loss.size(), 12u);
  EXPECT_EQ(Bytes(record.train_loss), Bytes(train_loss));
  EXPECT_EQ(Bytes(record.val_accuracy), Bytes(val_accuracy));
  EXPECT_EQ(ParameterBytes(*dynamics_model), ParameterBytes(*classifier_model));
}

}  // namespace
}  // namespace skipnode
