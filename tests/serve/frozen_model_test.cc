// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The FrozenModel bitwise contract: every serving read — full table,
// row-gathered batch, argmax classes, checkpoint restore — reproduces
// EvaluateLogits exactly, at any thread count.

#include "serve/frozen_model.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/checkpoint.h"
#include "nn/model_factory.h"
#include "tensor/ops.h"
#include "testing/mutation.h"
#include "testing/pool_dispatches.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

Graph& TestGraph() {
  static Graph* const kGraph =
      new Graph(BuildDatasetByName("cornell_like", 1.0, 3));
  return *kGraph;
}

// A graph large enough that a Freeze's first-layer Gemm exceeds the pool's
// grain, for the across-thread-count check.
Graph& LargeGraph() {
  static Graph* const kGraph =
      new Graph(BuildDatasetByName("cora_like", 1.0, 3));
  return *kGraph;
}

ModelConfig SmallConfig(Graph& graph = TestGraph()) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 8;
  config.out_dim = graph.num_classes();
  config.num_layers = 3;
  config.dropout = 0.3f;
  return config;
}

// A briefly trained model, so the weights are not just their init values.
std::unique_ptr<Model> TrainedModel(const std::string& name,
                                    Graph& graph = TestGraph()) {
  Rng rng(7);
  auto model = MakeModel(name, SmallConfig(graph), rng);
  Rng split_rng(7);
  const Split split = RandomSplit(graph, 0.6, 0.2, split_rng);
  TrainNodeClassifier(*model, graph, split, StrategyConfig::None(),
                      {.options = {.epochs = 5, .seed = 7}});
  return model;
}

std::vector<int> SomeIds(int num_nodes) {
  // Out of order, with repeats.
  return {num_nodes - 1, 0, 3, 3, num_nodes / 2, 1};
}

TEST(FrozenModelTest, LogitsAreBitwiseEvaluateLogitsRowsForEveryBackbone) {
  Graph& graph = LargeGraph();
  for (const std::string& name : AllModelNames()) {
    auto model = TrainedModel(name, graph);
    const Matrix reference =
        EvaluateLogits(*model, graph, StrategyConfig::None());
    const std::vector<int> ids = SomeIds(reference.rows());
    const Matrix expected = GatherRows(reference, ids);
    for (const int threads : {1, 4, 8}) {
      SetParallelThreadCount(threads);
      std::unique_ptr<FrozenModel> frozen_ptr;
      const int64_t dispatches = testing::PoolDispatches([&] {
        frozen_ptr = std::make_unique<FrozenModel>(
            FrozenModel::Freeze(*model, graph, StrategyConfig::None()));
      });
      const FrozenModel& frozen = *frozen_ptr;
      if (threads == 4) {
        EXPECT_GT(dispatches, 0) << name;
      }
      EXPECT_EQ(MaxAbsDiff(frozen.full_logits(), reference), 0.0f)
          << name << " @ " << threads << " threads";
      EXPECT_EQ(MaxAbsDiff(frozen.Logits(ids), expected), 0.0f)
          << name << " @ " << threads << " threads";
    }
    SetParallelThreadCount(0);
  }
}

TEST(FrozenModelTest, FreezeUnderAStrategyMatchesEvaluateLogits) {
  auto model = TrainedModel("SGC");
  const StrategyConfig strategy = StrategyConfig::SkipNodeU(0.5f);
  const Matrix reference = EvaluateLogits(*model, TestGraph(), strategy);
  const FrozenModel frozen =
      FrozenModel::Freeze(*model, TestGraph(), strategy);
  const std::vector<int> ids = SomeIds(frozen.num_nodes());
  EXPECT_EQ(MaxAbsDiff(frozen.Logits(ids), GatherRows(reference, ids)), 0.0f);
}

TEST(FrozenModelTest, PredictIsArgmaxOfLogits) {
  auto model = TrainedModel("SGC");
  const FrozenModel frozen =
      FrozenModel::Freeze(*model, TestGraph(), StrategyConfig::None());
  const std::vector<int> ids = SomeIds(frozen.num_nodes());
  const Matrix logits = frozen.Logits(ids);
  const std::vector<int> classes = frozen.Predict(ids);
  ASSERT_EQ(classes.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    int best = 0;
    for (int c = 1; c < logits.cols(); ++c) {
      if (logits(static_cast<int>(i), c) > logits(static_cast<int>(i), best)) {
        best = c;
      }
    }
    EXPECT_EQ(classes[i], best) << "row " << i;
  }
}

TEST(FrozenModelTest, CheckpointRoundTripIsBitwise) {
  const std::string dir = ::testing::TempDir() + "frozen_roundtrip";
  auto model = TrainedModel("GCNII");
  ASSERT_TRUE(SaveModelParameters(*model, dir));
  const FrozenModel live =
      FrozenModel::Freeze(*model, TestGraph(), StrategyConfig::None());
  const std::unique_ptr<FrozenModel> restored = FrozenModel::TryFromCheckpoint(
      dir, "GCNII", SmallConfig(), TestGraph(), StrategyConfig::None(),
      nullptr);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(MaxAbsDiff(restored->full_logits(), live.full_logits()), 0.0f);
  const std::vector<int> ids = SomeIds(live.num_nodes());
  EXPECT_EQ(MaxAbsDiff(restored->Logits(ids), live.Logits(ids)), 0.0f);
}

TEST(FrozenModelTest, TryFromCheckpointLoadsBitwiseAndRejectsWithErrors) {
  const std::string dir = ::testing::TempDir() + "frozen_try_roundtrip";
  auto model = TrainedModel("GCN");
  ASSERT_TRUE(SaveModelParameters(*model, dir));
  const FrozenModel live =
      FrozenModel::Freeze(*model, TestGraph(), StrategyConfig::None());

  // Success path: bitwise the live freeze, no error written.
  std::string error = "unchanged";
  std::unique_ptr<FrozenModel> restored = FrozenModel::TryFromCheckpoint(
      dir, "GCN", SmallConfig(), TestGraph(), StrategyConfig::None(), &error);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(error, "unchanged");
  EXPECT_EQ(MaxAbsDiff(restored->full_logits(), live.full_logits()), 0.0f);

  // Failure paths return nullptr + a structured message, never abort.
  EXPECT_EQ(FrozenModel::TryFromCheckpoint(
                ::testing::TempDir() + "frozen_try_nowhere", "GCN",
                SmallConfig(), TestGraph(), StrategyConfig::None(), &error),
            nullptr);
  EXPECT_NE(error.find("no readable checkpoint manifest"), std::string::npos);

  ModelConfig deeper = SmallConfig();
  deeper.num_layers = 5;
  EXPECT_EQ(FrozenModel::TryFromCheckpoint(dir, "GCN", deeper, TestGraph(),
                                           StrategyConfig::None(), &error),
            nullptr);
  EXPECT_NE(error.find("different architecture"), std::string::npos);

  // A null error sink is allowed on every path.
  EXPECT_EQ(FrozenModel::TryFromCheckpoint(dir, "GCN", deeper, TestGraph(),
                                           StrategyConfig::None(), nullptr),
            nullptr);
}

TEST(FrozenModelTest, MismatchedArchitectureIsRejectedWithClearMessage) {
  const std::string dir = ::testing::TempDir() + "frozen_arch_mismatch";
  auto model = TrainedModel("GCN");
  ASSERT_TRUE(SaveModelParameters(*model, dir));
  const auto rejection = [&](const std::string& from,
                             const ModelConfig& config) {
    std::string error;
    EXPECT_EQ(FrozenModel::TryFromCheckpoint(from, "GCN", config, TestGraph(),
                                             StrategyConfig::None(), &error),
              nullptr);
    return error;
  };

  // Same backbone, different depth: parameter set disagrees.
  ModelConfig deeper = SmallConfig();
  deeper.num_layers = 5;
  EXPECT_NE(rejection(dir, deeper).find("different architecture"),
            std::string::npos);

  // Same depth, different hidden width: shapes disagree.
  ModelConfig wider = SmallConfig();
  wider.hidden_dim = 16;
  EXPECT_NE(rejection(dir, wider).find("ModelConfig needs"),
            std::string::npos);

  // No checkpoint at all.
  EXPECT_NE(rejection(::testing::TempDir() + "frozen_nowhere", SmallConfig())
                .find("no readable checkpoint manifest"),
            std::string::npos);
}

// Seeded mutation pass over a --save-dir checkpoint: each round copies the
// checkpoint with one of its files (the manifest or a parameter CSV) edited
// by testing::Mutated, then loads it. TryFromCheckpoint must return a model
// or nullptr with a message — an abort fails the whole binary.
TEST(FrozenModelTest, SeededCheckpointMutationsNeverAbort) {
  namespace fs = std::filesystem;
  const fs::path source = ::testing::TempDir() + "frozen_mutation_source";
  fs::remove_all(source);
  auto model = TrainedModel("GCN");
  ASSERT_TRUE(SaveModelParameters(*model, source.string()));
  std::vector<std::pair<fs::path, std::string>> files;  // relative path, text
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(source)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files.emplace_back(fs::relative(entry.path(), source),
                       std::string(std::istreambuf_iterator<char>(in), {}));
  }
  // The manifest plus one CSV per parameter (3 layers x weight and bias).
  ASSERT_EQ(files.size(), 7u);

  const fs::path mutant = ::testing::TempDir() + "frozen_mutation_mutant";
  constexpr int kIterations = 280;
  Rng rng(29);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    fs::remove_all(mutant);
    const size_t target = static_cast<size_t>(i) % files.size();
    for (size_t f = 0; f < files.size(); ++f) {
      const fs::path path = mutant / files[f].first;
      fs::create_directories(path.parent_path());
      std::ofstream out(path, std::ios::binary);
      out << (f == target ? testing::Mutated(files[f].second, rng)
                          : files[f].second);
    }
    std::string error;
    const std::unique_ptr<FrozenModel> restored =
        FrozenModel::TryFromCheckpoint(mutant.string(), "GCN", SmallConfig(),
                                       TestGraph(), StrategyConfig::None(),
                                       &error);
    if (restored != nullptr) {
      ++accepted;
      EXPECT_EQ(restored->num_nodes(), TestGraph().num_nodes());
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "round " << i;
    }
  }
  // Both outcomes occur: the pass reaches the accepting path (edits inside
  // a number) as well as every kind of rejection.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
}

}  // namespace
}  // namespace skipnode
