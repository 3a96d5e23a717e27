// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end acceptance for minibatch neighbor-sampled training
// (DESIGN §15): a sampled run at a fixed seed must produce bitwise-identical
// trained parameters at 1/4/8 threads and with the workspace pool on or
// off, must exercise the skip-aware frontier pruning whenever
// rho > 0, and must land in the same accuracy band as the full-batch
// reference.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/telemetry.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/model_factory.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

struct Fixture {
  Graph graph;
  Split split;

  Fixture()
      : graph(BuildDatasetByName("cora_like", 0.15, 1)),
        split([this]() {
          Rng rng(1);
          return PublicSplit(graph, 10, 120, 150, rng);
        }()) {}
};

ModelConfig ConfigFor(const Graph& graph, int layers) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.out_dim = graph.num_classes();
  config.num_layers = layers;
  config.dropout = 0.4f;
  return config;
}

struct TrainedRun {
  TrainResult result;
  std::vector<Matrix> parameters;
};

struct TrainSetup {
  std::string backbone = "GCN";
  StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  int layers = 3;
  int epochs = 10;
  // Empty fanouts = full-batch reference run.
  std::vector<int> fanouts;
  int batch_size = 32;
  int threads = 1;
};

TrainedRun Train(const Fixture& fixture, const TrainSetup& setup) {
  SetParallelThreadCount(setup.threads);
  Rng rng(12);
  auto model = MakeModel(setup.backbone, ConfigFor(fixture.graph, setup.layers),
                         rng);
  TrainedRun run;
  run.result = TrainNodeClassifier(
      *model, fixture.graph, fixture.split, setup.strategy,
      {.options = {.epochs = setup.epochs, .seed = 31},
       .sampling = {.fanouts = setup.fanouts, .batch_size = setup.batch_size}});
  for (Parameter* p : model->Parameters()) run.parameters.push_back(p->value);
  SetParallelThreadCount(0);
  return run;
}

void ExpectBitwiseEqual(const TrainedRun& a, const TrainedRun& b,
                        const std::string& label) {
  EXPECT_DOUBLE_EQ(a.result.final_train_loss, b.result.final_train_loss)
      << label;
  EXPECT_DOUBLE_EQ(a.result.test_accuracy, b.result.test_accuracy) << label;
  EXPECT_EQ(a.result.best_epoch, b.result.best_epoch) << label;
  ASSERT_EQ(a.parameters.size(), b.parameters.size()) << label;
  for (size_t i = 0; i < a.parameters.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(a.parameters[i], b.parameters[i]), 0.0f)
        << label << " parameter " << i;
  }
}

class SampledTrainTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(SampledTrainTest, SampledTrainingIsThreadCountInvariant) {
  const std::string backbone = GetParam().first;
  const std::string strategy_name = GetParam().second;
  StrategyConfig strategy = StrategyConfig::None();
  if (strategy_name == "uniform") strategy = StrategyConfig::SkipNodeU(0.5f);
  if (strategy_name == "biased") strategy = StrategyConfig::SkipNodeB(0.5f);

  Fixture fixture;
  TrainSetup setup;
  setup.backbone = backbone;
  setup.strategy = strategy;
  setup.fanouts = {4, 4, 4};
  const TrainedRun ref = Train(fixture, setup);
  EXPECT_GT(ref.result.final_train_loss, 0.0);
  for (const int threads : {4, 8}) {
    TrainSetup threaded = setup;
    threaded.threads = threads;
    ExpectBitwiseEqual(ref, Train(fixture, threaded),
                       backbone + "/" + strategy_name + " @" +
                           std::to_string(threads) + "t");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SampledTrainTest,
    ::testing::Values(std::make_pair("GCN", "uniform"),
                      std::make_pair("GCN", "biased"),
                      std::make_pair("GCN", "none"),
                      std::make_pair("ResGCN", "uniform")),
    [](const ::testing::TestParamInfo<std::pair<const char*, const char*>>&
           info) {
      return std::string(info.param.first) + "_" + info.param.second;
    });

// Sampled blocks recycle pool buffers across many more shapes than the full
// graph does; the pooled run must match the unpooled one bit for bit. (The
// fused masked kernel on block-shaped operands is pinned against the naive
// composition in spmm_rowselect_test.)
TEST(SampledTrainTest, PooledSampledTrainingMatchesUnpooledBitwise) {
  Fixture fixture;
  TrainSetup setup;
  setup.fanouts = {4, 4, 4};

  SetMatrixPoolEnabled(false);
  const TrainedRun unpooled = Train(fixture, setup);
  SetMatrixPoolEnabled(true);
  const TrainedRun pooled = Train(fixture, setup);
  TrainSetup threaded = setup;
  threaded.threads = 4;
  const TrainedRun pooled_4t = Train(fixture, threaded);
  ExpectBitwiseEqual(unpooled, pooled, "sampled pooled-vs-unpooled");
  ExpectBitwiseEqual(unpooled, pooled_4t, "sampled pooled-vs-unpooled@4t");
}

// Sampling is a variance-reduction trade, not a different estimator: over
// enough epochs the sampled run must reach the full-batch band. (More
// optimizer steps per epoch usually puts it slightly above.)
TEST(SampledTrainTest, SampledAccuracyTracksFullBatch) {
  Fixture fixture;
  TrainSetup full;
  full.epochs = 30;
  const TrainedRun full_run = Train(fixture, full);

  TrainSetup sampled = full;
  sampled.fanouts = {4, 4, 4};
  const TrainedRun sampled_run = Train(fixture, sampled);

  EXPECT_GT(full_run.result.test_accuracy, 0.5);
  EXPECT_GE(sampled_run.result.test_accuracy,
            full_run.result.test_accuracy - 0.15);
}

// Whenever rho > 0 the sampler must actually skip expansion work: the
// pruning counters are the perf contract behind the ≤ 0.5× epoch budget.
TEST(SampledTrainTest, SkipAwareSamplingPrunesEdgesWheneverRhoPositive) {
  Fixture fixture;
  SetTelemetryEnabled(true);
  ResetTelemetry();
  TrainSetup setup;
  setup.epochs = 3;
  setup.fanouts = {4, 4, 4};
  Train(fixture, setup);
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);

  const MetricStat* nodes = snapshot.Find("sampler.nodes_pruned");
  const MetricStat* edges = snapshot.Find("sampler.edges_pruned");
  ASSERT_NE(nodes, nullptr);
  ASSERT_NE(edges, nullptr);
  EXPECT_GT(nodes->items, 0);
  EXPECT_GT(edges->items, 0);

  // And with rho == 0 (strategy none) no pruning counter may fire.
  SetTelemetryEnabled(true);
  ResetTelemetry();
  TrainSetup none = setup;
  none.strategy = StrategyConfig::None();
  Train(fixture, none);
  const TelemetrySnapshot none_snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);
  EXPECT_EQ(none_snapshot.Find("sampler.nodes_pruned"), nullptr);
  EXPECT_EQ(none_snapshot.Find("sampler.edges_pruned"), nullptr);
}

// Reruns must agree with themselves — the determinism pins above are not
// vacuously comparing NaNs.
TEST(SampledTrainTest, HarnessIsSelfConsistent) {
  Fixture fixture;
  TrainSetup setup;
  setup.fanouts = {4, 4, 4};
  const TrainedRun a = Train(fixture, setup);
  const TrainedRun b = Train(fixture, setup);
  ExpectBitwiseEqual(a, b, "sampled rerun");
  EXPECT_GT(a.result.final_train_loss, 0.0);
}

// Four layers puts two middle layers under the skip mask and a deeper
// frontier stack; the thread-invariance contract must hold there too.
TEST(SampledTrainTest, DeeperStackStaysThreadCountInvariant) {
  Fixture fixture;
  TrainSetup setup;
  setup.layers = 4;
  setup.epochs = 6;
  setup.fanouts = {3, 3, 3, 3};
  setup.strategy = StrategyConfig::SkipNodeU(0.4f);
  const TrainedRun ref = Train(fixture, setup);
  TrainSetup threaded = setup;
  threaded.threads = 8;
  ExpectBitwiseEqual(ref, Train(fixture, threaded), "4-layer @8t");
}

}  // namespace
}  // namespace skipnode
