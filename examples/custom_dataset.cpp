// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Bring-your-own-graph workflow: write a graph to plain files (the format a
// user's own data would arrive in), load it back through graph/io, train a
// GAT with SkipNode on it, checkpoint the trained model, and restore it into
// a fresh model. Demonstrates the I/O, checkpointing, and attention-backbone
// surfaces of the library end to end.

#include <cstdio>
#include <cstdlib>

#include "graph/datasets.h"
#include "graph/io.h"
#include "graph/splits.h"
#include "nn/checkpoint.h"
#include "nn/model_factory.h"
#include "tensor/ops.h"
#include "train/metrics.h"
#include "train/trainer.h"

int main() {
  using namespace skipnode;
  const std::string dir = "/tmp/skipnode_custom_dataset";
  std::system(("mkdir -p " + dir).c_str());

  // 1. Pretend this synthetic graph is the user's own data: export it to
  //    the plain-text formats (edge list / CSV features / label file).
  {
    Graph source = BuildDatasetByName("citeseer_like", 0.2, 42);
    SaveEdgeList(dir + "/edges.txt",
                 UndirectedEdges(*source.normalized_adjacency()));
    SaveMatrixCsv(dir + "/features.csv", source.features());
    SaveLabels(dir + "/labels.txt", source.labels());
    std::printf("exported %d nodes / %d edges to %s\n", source.num_nodes(),
                source.num_edges(), dir.c_str());
  }

  // 2. Load it back as a user would.
  std::unique_ptr<Graph> graph;
  if (!LoadGraph("my_graph", dir + "/edges.txt", dir + "/features.csv",
                 dir + "/labels.txt", &graph)) {
    std::printf("failed to load the exported graph\n");
    return 1;
  }
  std::printf("loaded '%s': %d nodes, %d classes, homophily %.2f\n",
              graph->name().c_str(), graph->num_nodes(),
              graph->num_classes(), graph->EdgeHomophily());

  // 3. Train a GAT with SkipNode on the loaded graph.
  Rng split_rng(1);
  Split split = RandomSplit(*graph, 0.6, 0.2, split_rng);
  ModelConfig config;
  config.in_dim = graph->feature_dim();
  config.hidden_dim = 32;
  config.out_dim = graph->num_classes();
  config.num_layers = 4;
  config.gat_heads = 4;
  config.dropout = 0.3f;

  Rng rng(7);
  auto model = MakeModel("GAT", config, rng);
  const TrainResult result =
      TrainNodeClassifier(*model, *graph, split, StrategyConfig::SkipNodeU(0.5f),
                          {.options = {.epochs = 60}});
  Matrix logits = EvaluateLogits(*model, *graph, StrategyConfig::None());
  std::printf("GAT + SkipNode-U: test acc %.1f%%, macro-F1 %.3f\n",
              100.0 * result.test_accuracy,
              MacroF1(logits, graph->labels(), split.test,
                      graph->num_classes()));

  // 4. Checkpoint and restore into a freshly-initialised model.
  if (!SaveModelParameters(*model, dir)) {
    std::printf("checkpoint save failed\n");
    return 1;
  }
  Rng fresh_rng(99);
  auto restored = MakeModel("GAT", config, fresh_rng);
  if (!LoadModelParameters(*restored, dir)) {
    std::printf("checkpoint load failed\n");
    return 1;
  }
  Matrix restored_logits =
      EvaluateLogits(*restored, *graph, StrategyConfig::None());
  // The checkpoint round trip is exact: any difference is a failure.
  const float max_diff = MaxAbsDiff(restored_logits, logits);
  std::printf("restored model %s trained logits: max diff %.2e\n",
              max_diff == 0.0f ? "matches" : "does NOT match", max_diff);
  return max_diff == 0.0f ? 0 : 1;
}
