// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/trainer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "graph/datasets.h"
#include "tensor/ops.h"
#include "nn/model_factory.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

struct Fixture {
  Graph graph;
  Split split;

  explicit Fixture(uint64_t seed)
      : graph(BuildDatasetByName("cora_like", 0.15, seed)),
        split([this, seed]() {
          Rng rng(seed);
          return PublicSplit(graph, 10, 120, 150, rng);
        }()) {}
};

ModelConfig ConfigFor(const Graph& graph, int layers) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 24;
  config.out_dim = graph.num_classes();
  config.num_layers = layers;
  config.dropout = 0.4f;
  return config;
}

TEST(TrainerTest, ShallowGcnBeatsChanceByAWideMargin) {
  Fixture setup(1);
  Rng rng(2);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  const TrainResult result =
      TrainNodeClassifier(*model, setup.graph, setup.split,
                          StrategyConfig::None(), {.options = {.epochs = 80}});
  const double chance = 1.0 / setup.graph.num_classes();
  EXPECT_GT(result.test_accuracy, chance * 2.5);
  EXPECT_GT(result.best_val_accuracy, chance * 2.5);
  EXPECT_GE(result.best_epoch, 0);
}

TEST(TrainerTest, ResultIsDeterministicForSeed) {
  Fixture setup(3);
  const TrainRun run{.options = {.epochs = 25, .seed = 17}};
  double accs[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(5);
    auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
    accs[i] = TrainNodeClassifier(*model, setup.graph, setup.split,
                                  StrategyConfig::SkipNodeU(0.5f), run)
                  .test_accuracy;
  }
  EXPECT_DOUBLE_EQ(accs[0], accs[1]);
}

TEST(TrainerTest, EvalEveryReducesEvaluationWithoutBreakingSelection) {
  Fixture setup(5);
  Rng rng(7);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(),
      {.options = {.epochs = 40, .eval_every = 5}});
  EXPECT_GT(result.test_accuracy, 0.0);
  EXPECT_EQ(result.best_epoch % 5 == 0 || result.best_epoch == 39, true);
}

TEST(TrainerTest, EvaluateLogitsShapeAndDeterminism) {
  Fixture setup(6);
  Rng rng(8);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  Matrix a = EvaluateLogits(*model, setup.graph, StrategyConfig::None());
  Matrix b = EvaluateLogits(*model, setup.graph, StrategyConfig::None());
  EXPECT_EQ(a.rows(), setup.graph.num_nodes());
  EXPECT_EQ(a.cols(), setup.graph.num_classes());
  EXPECT_LT(MaxAbsDiff(a, b), 1e-7f);
}

// The pass the smoothness metrics read: EvaluateLogits's logits bit for
// bit, plus every row of the representation feeding the classifier, for
// every backbone.
TEST(TrainerTest, EvaluateWithPenultimateIsTheEvaluateLogitsPass) {
  Fixture setup(6);
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  for (const std::string& name : AllModelNames()) {
    Rng rng(8);
    auto model = MakeModel(name, ConfigFor(setup.graph, 3), rng);
    const Matrix logits = EvaluateLogits(*model, setup.graph, strategy);
    const Evaluation eval =
        EvaluateWithPenultimate(*model, setup.graph, strategy);
    ASSERT_TRUE(eval.logits.SameShape(logits)) << name;
    EXPECT_EQ(std::memcmp(eval.logits.data(), logits.data(),
                          sizeof(float) * logits.size()),
              0)
        << name;
    EXPECT_EQ(eval.penultimate.rows(), setup.graph.num_nodes()) << name;
  }
}

TEST(TrainerTest, EpochCallbackObservesEveryEvaluatedEpoch) {
  Fixture setup(8);
  Rng rng(10);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  std::vector<int> epochs_seen;
  double last_val = -1.0, last_test = -1.0;
  TrainRun run;
  run.options.epochs = 12;
  run.options.eval_every = 3;
  run.on_epoch = [&](int epoch, double train_loss, double val_acc,
                     double test_acc) {
    epochs_seen.push_back(epoch);
    EXPECT_GT(train_loss, 0.0);
    last_val = val_acc;
    last_test = test_acc;
  };
  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  // Epochs 0, 3, 6, 9 per eval_every, plus the always-evaluated last epoch.
  EXPECT_EQ(epochs_seen, (std::vector<int>{0, 3, 6, 9, 11}));
  EXPECT_GE(last_val, 0.0);
  EXPECT_GE(last_test, 0.0);
  EXPECT_GE(result.best_val_accuracy, 0.0);
}

TEST(TrainerTest, CallbackDoesNotPerturbTheResult) {
  Fixture setup(9);
  const TrainOptions options{.epochs = 20, .seed = 23};
  TrainResult results[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(11);
    auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
    TrainRun run;
    run.options = options;
    if (i == 1) run.on_epoch = [](int, double, double, double) {};
    results[i] = TrainNodeClassifier(*model, setup.graph, setup.split,
                                     StrategyConfig::SkipNodeU(0.5f), run);
  }
  EXPECT_DOUBLE_EQ(results[0].test_accuracy, results[1].test_accuracy);
  EXPECT_DOUBLE_EQ(results[0].final_train_loss, results[1].final_train_loss);
  EXPECT_EQ(results[0].best_epoch, results[1].best_epoch);
}

// The tentpole contract: the whole training loop — GEMMs, SpMM, dropout,
// Adam — is bitwise reproducible across thread counts, so a run at 4
// threads must reproduce the 1-thread result exactly, not approximately.
TEST(TrainerTest, TrainResultIsIdenticalAcrossThreadCounts) {
  Fixture setup(10);
  const TrainRun run{.options = {.epochs = 30, .seed = 31}};
  TrainResult results[2];
  const int thread_counts[2] = {1, 4};
  int64_t dispatches_at_4 = 0;
  for (int i = 0; i < 2; ++i) {
    SetParallelThreadCount(thread_counts[i]);
    Rng rng(12);
    auto model = MakeModel("GCN", ConfigFor(setup.graph, 4), rng);
    const int64_t dispatches = testing::PoolDispatches([&] {
      results[i] = TrainNodeClassifier(*model, setup.graph, setup.split,
                                       StrategyConfig::SkipNodeU(0.5f), run);
    });
    if (thread_counts[i] == 4) dispatches_at_4 = dispatches;
  }
  SetParallelThreadCount(0);
  EXPECT_GT(dispatches_at_4, 0);
  EXPECT_EQ(results[0].best_epoch, results[1].best_epoch);
  EXPECT_EQ(results[0].epochs_run, results[1].epochs_run);
  EXPECT_DOUBLE_EQ(results[0].best_val_accuracy, results[1].best_val_accuracy);
  EXPECT_DOUBLE_EQ(results[0].test_accuracy, results[1].test_accuracy);
  EXPECT_DOUBLE_EQ(results[0].final_train_loss, results[1].final_train_loss);
}

TEST(TrainerTest, TrainingLossFallsOverTraining) {
  Fixture setup(7);
  Rng rng(9);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  const double loss_start =
      TrainNodeClassifier(*model, setup.graph, setup.split,
                          StrategyConfig::None(), {.options = {.epochs = 1}})
          .final_train_loss;
  const double loss_end =
      TrainNodeClassifier(*model, setup.graph, setup.split,
                          StrategyConfig::None(), {.options = {.epochs = 60}})
          .final_train_loss;
  EXPECT_LT(loss_end, loss_start);
}

// A non-positive eval cadence used to reach `epoch % eval_every` and die of
// SIGFPE; a negative epoch count is just as meaningless. Both now fail the
// entry-point check with a message naming the field.
TEST(TrainerDeathTest, RejectsNonPositiveEvalEveryAndNegativeEpochs) {
  Fixture setup(8);
  Rng rng(10);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  for (const int eval_every : {0, -1}) {
    EXPECT_DEATH(TrainNodeClassifier(
                     *model, setup.graph, setup.split, StrategyConfig::None(),
                     {.options = {.epochs = 3, .eval_every = eval_every}}),
                 "eval_every >= 1");
  }
  EXPECT_DEATH(TrainNodeClassifier(*model, setup.graph, setup.split,
                                   StrategyConfig::None(),
                                   {.options = {.epochs = -1}}),
               "epochs >= 0");
}

}  // namespace
}  // namespace skipnode
