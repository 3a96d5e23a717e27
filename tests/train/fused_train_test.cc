// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end acceptance test for the fused propagation + workspace pool
// (DESIGN §10): a whole training run with the fused masked kernel and the
// pool enabled must produce bitwise-identical trained parameters to the
// naive SpMM + RowSelect path with pooling disabled — at 1 and 4 threads,
// for both SkipNode samplers.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/simd.h"
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

TrainedRun Train(const Fixture& setup, const std::string& backbone,
                 StrategyConfig strategy, bool fused, bool pooled,
                 int threads) {
  strategy.fuse_propagation = fused;
  SetMatrixPoolEnabled(pooled);
  SetParallelThreadCount(threads);
  Rng rng(12);
  auto model = MakeModel(backbone, ConfigFor(setup.graph, 4), rng);
  TrainedRun run;
  run.result =
      TrainNodeClassifier(*model, setup.graph, setup.split, strategy,
                          {.options = {.epochs = 12, .seed = 31}});
  for (Parameter* p : model->Parameters()) run.parameters.push_back(p->value);
  SetParallelThreadCount(0);
  SetMatrixPoolEnabled(true);
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

class FusedTrainTest
    : public ::testing::TestWithParam<std::pair<const char*, bool>> {};

TEST_P(FusedTrainTest, FusedPooledTrainingIsBitwiseIdenticalToNaive) {
  const std::string backbone = GetParam().first;
  const bool biased = GetParam().second;
  const StrategyConfig strategy = biased ? StrategyConfig::SkipNodeB(0.5f)
                                         : StrategyConfig::SkipNodeU(0.5f);
  Fixture setup;
  const TrainedRun naive =
      Train(setup, backbone, strategy, /*fused=*/false, /*pooled=*/false,
            /*threads=*/1);
  const TrainedRun fused_1t =
      Train(setup, backbone, strategy, /*fused=*/true, /*pooled=*/true,
            /*threads=*/1);
  const TrainedRun fused_4t =
      Train(setup, backbone, strategy, /*fused=*/true, /*pooled=*/true,
            /*threads=*/4);
  ExpectBitwiseEqual(naive, fused_1t, backbone + " fused@1t");
  ExpectBitwiseEqual(naive, fused_4t, backbone + " fused@4t");
}

INSTANTIATE_TEST_SUITE_P(
    Backbones, FusedTrainTest,
    ::testing::Values(std::make_pair("GCN", false),
                      std::make_pair("GCN", true),
                      std::make_pair("JKNet", false)),
    [](const ::testing::TestParamInfo<std::pair<const char*, bool>>& info) {
      return std::string(info.param.first) +
             (info.param.second ? "Biased" : "Uniform");
    });

// The backward pass runs the parallel transposed-SpMM gather on every path,
// fused or not — training the *naive* path at 1 and 4 threads pins that the
// cached transpose plan and its thread-count-invariant partitioning leave
// trained parameters bitwise unchanged end-to-end (DESIGN §7/§10).
TEST(FusedTrainTest, NaiveTrainingIsThreadCountInvariant) {
  Fixture setup;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const TrainedRun naive_1t =
      Train(setup, "GCN", strategy, /*fused=*/false, /*pooled=*/false,
            /*threads=*/1);
  const TrainedRun naive_4t =
      Train(setup, "GCN", strategy, /*fused=*/false, /*pooled=*/false,
            /*threads=*/4);
  ExpectBitwiseEqual(naive_1t, naive_4t, "naive 1t-vs-4t");
}

// The fused path must actually help the model learn exactly what the naive
// path learns — so a naive-vs-naive rerun must also agree with itself (the
// harness is sound, not vacuously passing on e.g. NaN != NaN).
TEST(FusedTrainTest, HarnessIsSelfConsistent) {
  Fixture setup;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const TrainedRun a =
      Train(setup, "GCN", strategy, /*fused=*/false, /*pooled=*/false, 1);
  const TrainedRun b =
      Train(setup, "GCN", strategy, /*fused=*/false, /*pooled=*/false, 1);
  ExpectBitwiseEqual(a, b, "naive rerun");
  EXPECT_GT(a.result.final_train_loss, 0.0);
}


// End-to-end DESIGN section 14 pin: the SKIPNODE_SIMD kill-switch routes
// every kernel through the scalar references, and a whole training run must
// not move by a single bit.
TEST(FusedTrainTest, TrainingIsBitwiseIdenticalAcrossSimdSwitch) {
  Fixture setup;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const bool saved = simd::Enabled();
  simd::SetEnabled(true);
  const TrainedRun vec =
      Train(setup, "GCN", strategy, /*fused=*/true, /*pooled=*/true, 1);
  simd::SetEnabled(false);
  const TrainedRun scalar =
      Train(setup, "GCN", strategy, /*fused=*/true, /*pooled=*/true, 1);
  const TrainedRun scalar_4t =
      Train(setup, "GCN", strategy, /*fused=*/true, /*pooled=*/true, 4);
  simd::SetEnabled(saved);
  ExpectBitwiseEqual(vec, scalar, "simd on-vs-off");
  ExpectBitwiseEqual(vec, scalar_4t, "simd on-vs-off@4t");
}

}  // namespace
}  // namespace skipnode
