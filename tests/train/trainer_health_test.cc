// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end exercise of the numerical-health guardrails (DESIGN §8):
// deterministic fault injection, detection, snapshot rollback with LR
// backoff, and the two invariants the design promises — a guarded run with
// no fault is bitwise identical to an unguarded one, and the whole recovery
// path reproduces bitwise across thread counts.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "graph/datasets.h"
#include "nn/model_factory.h"
#include "train/trainer.h"
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

int CountEvents(const std::vector<HealthEvent>& log, HealthEventKind kind) {
  return static_cast<int>(std::count_if(
      log.begin(), log.end(),
      [kind](const HealthEvent& e) { return e.kind == kind; }));
}

// The guardrail cases parameterised on Mode run in both training modes:
// full-batch, and neighbor-sampled minibatches (GCN, fanout 3 at every
// layer, a batch size that splits the train split into 3 batches per epoch,
// so every guardrail fires mid-epoch as well as on an epoch's last batch).
enum class Mode { kFullBatch, kSampled };

SamplingOptions SamplingFor(Mode mode, const Split& split, int layers) {
  if (mode == Mode::kFullBatch) return {};
  return {.fanouts = std::vector<int>(static_cast<size_t>(layers), 3),
          .batch_size = static_cast<int>((split.train.size() + 2) / 3)};
}

class TrainerHealthModeTest : public ::testing::TestWithParam<Mode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, TrainerHealthModeTest,
    ::testing::Values(Mode::kFullBatch, Mode::kSampled),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return info.param == Mode::kSampled ? "Sampled" : "FullBatch";
    });

FaultPlan UpdateNaNAt(int epoch) {
  FaultPlan plan;
  plan.enabled = true;
  plan.site = FaultSite::kUpdate;
  plan.kind = FaultKind::kNaN;
  plan.epoch = epoch;
  plan.elements = 4;
  return plan;
}

// The acceptance scenario: a NaN injected into a parameter update at epoch
// 20 is detected the same epoch, the trainer rolls back and decays the LR,
// and the run still finishes with a finite loss and above-chance accuracy.
TEST(TrainerHealthTest, InjectedNaNTriggersRollbackAndRunStillConverges) {
  Fixture setup(1);
  Rng rng(2);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.options.epochs = 80;
  run.options.seed = 17;
  run.health.enabled = true;
  run.fault = UpdateNaNAt(20);

  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);

  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kFaultInjected),
            1);
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kNonFiniteParameter),
      1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  for (const HealthEvent& event : result.health_log) {
    EXPECT_EQ(event.epoch, 20);
  }
  EXPECT_EQ(result.rollbacks, 1);
  EXPECT_FLOAT_EQ(result.final_learning_rate,
                  run.options.learning_rate * run.health.lr_backoff);
  EXPECT_EQ(result.epochs_run, 80);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
  const double chance = 1.0 / setup.graph.num_classes();
  EXPECT_GT(result.test_accuracy, chance * 2.5);
}

TEST_P(TrainerHealthModeTest, ActivationFaultIsCaughtAtTheLossCheck) {
  Fixture setup(2);
  Rng rng(3);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.sampling = SamplingFor(GetParam(), setup.split, 2);
  run.options.epochs = 30;
  run.health.enabled = true;
  run.fault.enabled = true;
  run.fault.site = FaultSite::kActivation;
  run.fault.kind = FaultKind::kInf;
  run.fault.epoch = 10;
  run.fault.elements = 1 << 20;  // Clamped: corrupt the whole logit matrix.

  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kNonFiniteLoss),
            1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

TEST_P(TrainerHealthModeTest, GradientFaultIsCaughtBeforeTheOptimizerStep) {
  Fixture setup(3);
  Rng rng(4);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.sampling = SamplingFor(GetParam(), setup.split, 2);
  run.options.epochs = 30;
  run.health.enabled = true;
  run.fault.enabled = true;
  run.fault.site = FaultSite::kGradient;
  run.fault.kind = FaultKind::kNaN;
  run.fault.epoch = 10;

  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kNonFiniteGradient), 1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 1);
  // The bad gradient never reached Step, so parameters stayed finite — no
  // kNonFiniteParameter entry.
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kNonFiniteParameter),
      0);
}

TEST_P(TrainerHealthModeTest, ExhaustedRollbackBudgetHaltsTraining) {
  Fixture setup(4);
  Rng rng(5);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.sampling = SamplingFor(GetParam(), setup.split, 2);
  run.options.epochs = 50;
  run.health.enabled = true;
  run.health.max_rollbacks = 0;
  run.fault = UpdateNaNAt(10);

  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  EXPECT_EQ(
      CountEvents(result.health_log, HealthEventKind::kRecoveryExhausted), 1);
  EXPECT_EQ(CountEvents(result.health_log, HealthEventKind::kRollback), 0);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_EQ(result.epochs_run, 11);  // Halted at the faulted epoch.
}

// DESIGN §8's first invariant: the guardrails are pure reads, so enabling
// them on a healthy run must not change one bit of the result.
TEST_P(TrainerHealthModeTest, GuardedRunWithoutFaultIsBitwiseIdentical) {
  Fixture setup(5);
  TrainResult results[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(6);
    auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
    TrainRun run;
    run.sampling = SamplingFor(GetParam(), setup.split, 2);
    run.options.epochs = 25;
    run.options.seed = 23;
    run.health.enabled = (i == 1);
    run.health.check_every = 2;
    results[i] = TrainNodeClassifier(*model, setup.graph, setup.split,
                                     StrategyConfig::SkipNodeU(0.5f), run);
  }
  EXPECT_DOUBLE_EQ(results[0].final_train_loss, results[1].final_train_loss);
  EXPECT_DOUBLE_EQ(results[0].best_val_accuracy,
                   results[1].best_val_accuracy);
  EXPECT_DOUBLE_EQ(results[0].test_accuracy, results[1].test_accuracy);
  EXPECT_EQ(results[0].best_epoch, results[1].best_epoch);
  EXPECT_TRUE(results[1].health_log.empty());
}

// DESIGN §8's second invariant: detection, rollback, and recovery all stay
// on the row-ownership parallel contract, so the whole faulted run
// reproduces bitwise at any thread count.
TEST_P(TrainerHealthModeTest, RecoveryIsBitwiseIdenticalAcrossThreadCounts) {
  Fixture setup(6);
  TrainResult results[2];
  const int thread_counts[2] = {1, 4};
  int64_t dispatches_at_4 = 0;
  for (int i = 0; i < 2; ++i) {
    SetParallelThreadCount(thread_counts[i]);
    Rng rng(7);
    auto model = MakeModel("GCN", ConfigFor(setup.graph, 4), rng);
    TrainRun run;
    run.sampling = SamplingFor(GetParam(), setup.split, 4);
    run.options.epochs = 40;
    run.options.seed = 31;
    run.health.enabled = true;
    run.fault = UpdateNaNAt(15);
    const int64_t dispatches = testing::PoolDispatches([&] {
      results[i] = TrainNodeClassifier(*model, setup.graph, setup.split,
                                       StrategyConfig::SkipNodeU(0.5f), run);
    });
    if (thread_counts[i] == 4) dispatches_at_4 = dispatches;
  }
  SetParallelThreadCount(0);
  EXPECT_GT(dispatches_at_4, 0);
  ASSERT_EQ(results[0].health_log.size(), results[1].health_log.size());
  for (size_t i = 0; i < results[0].health_log.size(); ++i) {
    EXPECT_EQ(results[0].health_log[i].kind, results[1].health_log[i].kind);
    EXPECT_EQ(results[0].health_log[i].epoch,
              results[1].health_log[i].epoch);
    EXPECT_EQ(results[0].health_log[i].detail,
              results[1].health_log[i].detail);
  }
  EXPECT_EQ(results[0].rollbacks, results[1].rollbacks);
  EXPECT_DOUBLE_EQ(results[0].final_train_loss, results[1].final_train_loss);
  EXPECT_DOUBLE_EQ(results[0].best_val_accuracy,
                   results[1].best_val_accuracy);
  EXPECT_DOUBLE_EQ(results[0].test_accuracy, results[1].test_accuracy);
  EXPECT_EQ(results[0].best_epoch, results[1].best_epoch);
}

TEST(TrainerHealthTest, GradClippingCapsTheGlobalNorm) {
  Fixture setup(7);
  Rng rng(8);
  auto model = MakeModel("GCN", ConfigFor(setup.graph, 2), rng);
  TrainRun run;
  run.options.epochs = 10;
  run.health.enabled = true;
  run.health.grad_clip_norm = 1e-3f;  // Tiny: every epoch should clip.
  const TrainResult result = TrainNodeClassifier(
      *model, setup.graph, setup.split, StrategyConfig::None(), run);
  EXPECT_GT(CountEvents(result.health_log, HealthEventKind::kGradientClipped),
            0);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

}  // namespace
}  // namespace skipnode
