// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end acceptance test for the fused propagation + workspace pool
// (DESIGN §10): a whole training run through the fused masked kernel with
// the pool enabled must produce bitwise-identical trained parameters to the
// same run with pooling disabled — at 1 and 4 threads, for both SkipNode
// samplers. The fused kernel itself is pinned bitwise against the naive
// SpMM + RowSelect composition op by op (spmm_rowselect_test).

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
#include "testing/pool_dispatches.h"
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
  int64_t dispatches = 0;  // jobs the run handed to the pool
};

TrainedRun Train(const Fixture& setup, const std::string& backbone,
                 const StrategyConfig& strategy, bool pooled, int threads) {
  SetMatrixPoolEnabled(pooled);
  SetParallelThreadCount(threads);
  Rng rng(12);
  auto model = MakeModel(backbone, ConfigFor(setup.graph, 4), rng);
  TrainedRun run;
  run.dispatches = testing::PoolDispatches([&] {
    run.result =
        TrainNodeClassifier(*model, setup.graph, setup.split, strategy,
                            {.options = {.epochs = 12, .seed = 31}});
  });
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

TEST_P(FusedTrainTest, PooledTrainingIsBitwiseIdenticalToUnpooled) {
  const std::string backbone = GetParam().first;
  const bool biased = GetParam().second;
  const StrategyConfig strategy = biased ? StrategyConfig::SkipNodeB(0.5f)
                                         : StrategyConfig::SkipNodeU(0.5f);
  Fixture setup;
  const TrainedRun unpooled =
      Train(setup, backbone, strategy, /*pooled=*/false, /*threads=*/1);
  const TrainedRun pooled_1t =
      Train(setup, backbone, strategy, /*pooled=*/true, /*threads=*/1);
  const TrainedRun pooled_4t =
      Train(setup, backbone, strategy, /*pooled=*/true, /*threads=*/4);
  ExpectBitwiseEqual(unpooled, pooled_1t, backbone + " pooled@1t");
  ExpectBitwiseEqual(unpooled, pooled_4t, backbone + " pooled@4t");
  EXPECT_GT(pooled_4t.dispatches, 0);
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

// Full-batch steps request the same capacities every epoch, and the
// values the pool never handed out (parameter copies, non-pooled op
// outputs, the 1x1 loss) are freed with the tape, so the pool's retention
// must not move from one epoch to the next. A pool that took that storage
// back grew every epoch here (0.04 MB for GCN, 0.39 MB for ResGCN).
TEST(FusedTrainTest, FullBatchPoolRetentionIsFlat) {
  const Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  Rng split_rng(1);
  const Split split = PublicSplit(graph, 20, 500, 1000, split_rng);
  for (const char* backbone : {"GCN", "ResGCN"}) {
    ModelConfig config = ConfigFor(graph, /*layers=*/3);
    config.hidden_dim = 32;
    Rng rng(12);
    auto model = MakeModel(backbone, config, rng);
    GlobalMatrixPool().Trim();
    std::vector<int64_t> retained;
    TrainNodeClassifier(
        *model, graph, split, StrategyConfig::SkipNodeU(0.5f),
        {.options = {.epochs = 12, .seed = 31},
         .on_epoch = [&retained](int, double, double, double) {
           retained.push_back(GlobalMatrixPool().bytes_retained());
         }});
    ASSERT_EQ(retained.size(), 12u) << backbone;
    EXPECT_GT(retained[0], 0) << backbone;
    for (size_t epoch = 1; epoch < retained.size(); ++epoch) {
      EXPECT_EQ(retained[epoch], retained[0])
          << backbone << " epoch " << epoch;
    }
  }
}

// The backward pass runs the parallel transposed-SpMM gather — training
// without the pool at 1 and 4 threads pins that the cached transpose plan
// and its thread-count-invariant partitioning leave trained parameters
// bitwise unchanged end-to-end (DESIGN §7/§10).
TEST(FusedTrainTest, UnpooledTrainingIsThreadCountInvariant) {
  Fixture setup;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const TrainedRun unpooled_1t =
      Train(setup, "GCN", strategy, /*pooled=*/false, /*threads=*/1);
  const TrainedRun unpooled_4t =
      Train(setup, "GCN", strategy, /*pooled=*/false, /*threads=*/4);
  ExpectBitwiseEqual(unpooled_1t, unpooled_4t, "unpooled 1t-vs-4t");
  EXPECT_GT(unpooled_4t.dispatches, 0);
}

// A rerun must agree with itself (the harness is sound, not vacuously
// passing on e.g. NaN != NaN).
TEST(FusedTrainTest, HarnessIsSelfConsistent) {
  Fixture setup;
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const TrainedRun a = Train(setup, "GCN", strategy, /*pooled=*/false, 1);
  const TrainedRun b = Train(setup, "GCN", strategy, /*pooled=*/false, 1);
  ExpectBitwiseEqual(a, b, "unpooled rerun");
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
  const TrainedRun vec = Train(setup, "GCN", strategy, /*pooled=*/true, 1);
  simd::SetEnabled(false);
  const TrainedRun scalar = Train(setup, "GCN", strategy, /*pooled=*/true, 1);
  const TrainedRun scalar_4t =
      Train(setup, "GCN", strategy, /*pooled=*/true, 4);
  simd::SetEnabled(saved);
  ExpectBitwiseEqual(vec, scalar, "simd on-vs-off");
  ExpectBitwiseEqual(vec, scalar_4t, "simd on-vs-off@4t");
  EXPECT_GT(scalar_4t.dispatches, 0);
}

}  // namespace
}  // namespace skipnode
