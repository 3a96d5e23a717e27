// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The eval row plan (DESIGN §10): an evaluation pass computes only the rows
// its val/test logits read. Three contracts:
//   1. Every val and test logit of a planned pass is bitwise the full
//      pass's (EvaluateLogits), for every backbone x strategy at 1 and 4
//      threads. A backbone that takes no plan passes trivially; one that
//      routes a propagation at the wrong depth does not.
//   2. The trainer's evaluation reports what the full pass reports.
//   3. The walk stops at a fixed point: rows no read row reaches are never
//      computed, at any depth.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/telemetry.h"
#include "core/strategies.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/model_factory.h"
#include "tensor/ops.h"
#include "train/metrics.h"
#include "testing/pool_dispatches.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

constexpr int kLayers = 4;

Graph& TestGraph() {
  static Graph* const kGraph =
      new Graph(BuildDatasetByName("cora_like", 1.0, 3));
  return *kGraph;
}

// A small val and test set, so the plan leaves rows out at every depth a
// kLayers-deep model propagates at except, possibly, the first layer's.
const Split& TestSplit() {
  static const Split* const kSplit = [] {
    Rng rng(4);
    return new Split(PublicSplit(TestGraph(), /*per_class=*/5,
                                 /*num_val=*/8, /*num_test=*/8, rng));
  }();
  return *kSplit;
}

std::vector<int> ReadRows(const Split& split) {
  std::vector<int> rows = split.val;
  rows.insert(rows.end(), split.test.begin(), split.test.end());
  return rows;
}

ModelConfig TestConfig(const Graph& graph) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.gat_heads = 4;
  config.out_dim = graph.num_classes();
  config.num_layers = kLayers;
  return config;
}

// Every strategy that takes a plan: PairNorm's row mean reads every row.
std::vector<StrategyConfig> PlannedStrategies() {
  return {StrategyConfig::None(),           StrategyConfig::DropEdge(0.3f),
          StrategyConfig::DropNode(0.3f),   StrategyConfig::SkipConnection(),
          StrategyConfig::SkipNodeU(0.5f),  StrategyConfig::SkipNodeB(0.5f)};
}

// Row `row` of `a` and of `b` hold the same bits.
bool SameRowBits(const Matrix& a, const Matrix& b, int row) {
  return std::memcmp(a.row(row), b.row(row), sizeof(float) * a.cols()) == 0;
}

TEST(EvalRowPlanTest, PlanLeavesRowsOutAtEveryPropagatedDepth) {
  const Graph& graph = TestGraph();
  const EvalRowPlan plan(*graph.normalized_adjacency(),
                         ReadRows(TestSplit()));
  // Otherwise the pins below could not tell a wrong depth from a right one.
  for (int depth = 0; depth < kLayers - 1; ++depth) {
    EXPECT_FALSE(plan.UnreadRows(depth).empty()) << depth;
  }
}

TEST(EvalRowPlanTest, PlannedEvalMatchesFullPassBitwise) {
  const Graph& graph = TestGraph();
  const std::vector<int> read_rows = ReadRows(TestSplit());
  const EvalRowPlan plan(*graph.normalized_adjacency(), read_rows);
  for (const int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    for (const std::string& name : AllModelNames()) {
      Rng init_rng(5);
      auto model = MakeModel(name, TestConfig(graph), init_rng);
      for (const StrategyConfig& strategy : PlannedStrategies()) {
        Matrix full, planned;
        const int64_t dispatches = testing::PoolDispatches([&] {
          full = EvaluateLogits(*model, graph, strategy);
          Tape tape;
          Rng rng(6);
          StrategyContext ctx(graph, strategy, plan, rng);
          planned =
              model->Forward(tape, ctx, /*training=*/false, rng).logits.value();
        });
        if (threads == 4) {
          EXPECT_GT(dispatches, 0)
              << name << " " << StrategyName(strategy.kind);
        }
        ASSERT_TRUE(planned.SameShape(full));
        for (const int row : read_rows) {
          ASSERT_TRUE(SameRowBits(planned, full, row))
              << name << " " << StrategyName(strategy.kind) << " row " << row
              << " at " << threads << " threads";
        }
      }
    }
  }
  SetParallelThreadCount(0);
}

// The trainer builds the plan from val ∪ test: every accuracy its
// evaluation reports is the full pass's, and PairNorm keeps the full pass.
TEST(EvalRowPlanTest, TrainerEvaluationReportsTheFullPassAccuracy) {
  const Graph& graph = TestGraph();
  const Split& split = TestSplit();
  std::vector<StrategyConfig> strategies = PlannedStrategies();
  strategies.push_back(StrategyConfig::PairNorm(1.0f));
  for (const char* name : {"GCN", "ResGCN", "JKNet"}) {
    for (const StrategyConfig& strategy : strategies) {
      Rng rng(8);
      auto model = MakeModel(name, TestConfig(graph), rng);
      int evaluations = 0;
      TrainRun run{.options = {.epochs = 3, .seed = 9}};
      run.on_epoch = [&](int epoch, double, double val, double test) {
        const Matrix full = EvaluateLogits(*model, graph, strategy);
        EXPECT_EQ(val, Accuracy(full, graph.labels(), split.val))
            << name << " " << StrategyName(strategy.kind) << " " << epoch;
        EXPECT_EQ(test, Accuracy(full, graph.labels(), split.test))
            << name << " " << StrategyName(strategy.kind) << " " << epoch;
        ++evaluations;
      };
      TrainNodeClassifier(*model, graph, split, strategy, run);
      EXPECT_EQ(evaluations, 3);
    }
  }
}

// Two components: a 20-cycle holding the one read row, and a 10-cycle no
// read row reaches.
Graph TwoComponentGraph() {
  EdgeList edges;
  for (int i = 0; i < 20; ++i) edges.emplace_back(i, (i + 1) % 20);
  for (int i = 0; i < 10; ++i) edges.emplace_back(20 + i, 20 + (i + 1) % 10);
  Rng rng(10);
  return Graph("two_components", 30, std::move(edges),
               Matrix::Random(30, 6, rng), std::vector<int>(30, 0),
               /*num_classes=*/2);
}

TEST(EvalRowPlanTest, WalkStopsAtFixedPointAndNeverReadsUnreachedRows) {
  const Graph graph = TwoComponentGraph();
  const EvalRowPlan plan(*graph.normalized_adjacency(), std::vector<int>{0});
  // Row 10, the far side of the 20-cycle from row 0, is read from hop 10
  // on; from there on no hop adds a row.
  const std::vector<uint8_t> fixed = plan.UnreadRows(10);
  EXPECT_NE(plan.UnreadRows(9), fixed);
  for (int depth = 0; depth <= 64; ++depth) {
    const std::vector<uint8_t> unread = plan.UnreadRows(depth);
    ASSERT_EQ(unread.size(), 30u);
    for (int r = 20; r < 30; ++r) EXPECT_EQ(unread[r], 1) << depth;
    // Row r of the 20-cycle is read from hop min(r, 20 - r) on.
    for (int r = 0; r < 20; ++r) {
      EXPECT_EQ(unread[r], std::min(r, 20 - r) > depth ? 1 : 0) << depth;
    }
    if (depth >= 10) {
      EXPECT_EQ(unread, fixed) << depth;
    }
  }

  // With every row reachable the plan ends in an empty mask: from there on
  // every row is computed.
  const EvalRowPlan all(*graph.normalized_adjacency(),
                        std::vector<int>{0, 20});
  EXPECT_FALSE(all.UnreadRows(9).empty());
  EXPECT_TRUE(all.UnreadRows(10).empty());
  EXPECT_TRUE(all.UnreadRows(40).empty());
}

// Every propagation of a planned pass — 16 layers, far past the fixed
// point — leaves the unreached component out, and row 0 stays bitwise.
TEST(EvalRowPlanTest, DeepPlannedPassNeverComputesUnreachedRows) {
  const Graph graph = TwoComponentGraph();
  const EvalRowPlan plan(*graph.normalized_adjacency(), std::vector<int>{0});
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = 8;
  config.out_dim = graph.num_classes();
  config.num_layers = 16;
  const bool saved = TelemetryEnabled();
  SetTelemetryEnabled(true);
  for (const char* name : {"GCN", "ResGCN"}) {
    Rng rng(11);
    auto model = MakeModel(name, config, rng);
    const Matrix full = EvaluateLogits(*model, graph, StrategyConfig::None());
    ResetTelemetry();
    Tape tape;
    StrategyContext ctx(graph, StrategyConfig::None(), plan, rng);
    const Matrix planned =
        model->Forward(tape, ctx, /*training=*/false, rng).logits.value();
    const TelemetrySnapshot snapshot = SnapshotTelemetry();
    EXPECT_TRUE(SameRowBits(planned, full, 0)) << name;
    const MetricStat* unread = snapshot.Find("spmm.rows_unread");
    ASSERT_NE(unread, nullptr) << name;
    EXPECT_EQ(unread->count, config.num_layers) << name;
    EXPECT_GE(unread->items, int64_t{10} * config.num_layers) << name;
    // The plan's products are timed as plain products, apart from SkipNode's.
    EXPECT_EQ(snapshot.Find("sparse.spmm_masked"), nullptr) << name;
    EXPECT_EQ(snapshot.Find("spmm.rows_skipped"), nullptr) << name;
    // The unreached component's logits were never computed.
    for (int r = 20; r < 30; ++r) {
      for (int c = 0; c < planned.cols(); ++c) EXPECT_EQ(planned(r, c), 0.0f);
    }
  }
  ResetTelemetry();
  SetTelemetryEnabled(saved);
}

}  // namespace
}  // namespace skipnode
