// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Reproduces Figure 5: sensitivity of a 32-layer GCN to SkipNode's only
// hyper-parameter, the sampling rate rho, on the three citation stand-ins.
//   (a) test accuracy vs rho (vanilla GCN as the flat baseline),
//   (b) MAD of the learned features after training vs rho.
// Expected shape: at this extreme depth, larger rho performs better; the
// vanilla baseline sits at chance with MAD ~ 0, while SkipNode's MAD is
// positive and grows with rho.

#include <string>
#include <vector>

#include "base/result_table.h"

#include "bench_common.h"
#include "core/oversmoothing.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

struct RhoPoint {
  double accuracy = 0.0;
  double mad = 0.0;
};

RhoPoint RunPoint(const Graph& graph, const Split& split,
                  const StrategyConfig& strategy, int epochs, int hidden,
                  int depth) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = hidden;
  config.out_dim = graph.num_classes();
  config.num_layers = depth;
  config.dropout = 0.1f;

  Rng rng(19);
  auto model = MakeModel("GCN", config, rng);
  RhoPoint point;
  point.accuracy =
      100.0 * TrainNodeClassifier(*model, graph, split, strategy,
                                  {.options = {.epochs = epochs,
                                               .weight_decay = 5e-4f,
                                               .eval_every = 4,
                                               .seed = 19}})
                  .test_accuracy;
  // MAD of the trained model's penultimate features (paper Fig. 5b).
  Tape tape;
  Rng eval_rng(20);
  StrategyContext ctx(graph, strategy, /*training=*/false, eval_rng);
  model->Forward(tape, ctx, /*training=*/false, eval_rng);
  point.mad = MeanAverageDistance(graph, model->Penultimate());
  return point;
}

void Main() {
  bench::Begin("fig5");

  const std::vector<std::string> datasets = {"cora_like", "citeseer_like",
                                             "pubmed_like"};
  const std::vector<float> rhos = {0.1f, 0.3f, 0.5f, 0.7f, 0.9f};
  // The paper trains the 32-layer model for 500 epochs on the full graphs;
  // the smoke scale cannot afford that, so it studies the same sweep at
  // depth 16 with 150 epochs (the accuracy-increases-with-rho shape is the
  // same, just at a shallower collapse point).
  const int depth = bench::Pick(16, 32);
  const int epochs = bench::Pick(150, 500);
  const int hidden = bench::Pick(32, 64);
  const double scale = bench::Pick(0.15, 1.0);

  for (const std::string& dataset : datasets) {
    Graph graph = BuildDatasetByName(dataset, scale, /*seed=*/14);
    Rng split_rng(14);
    Split split = PublicSplit(graph, 20, bench::Pick(120, 500),
                              bench::Pick(200, 1000), split_rng);

    // One cell record per trained point; MAD rides along as a second
    // metric in the same record stream.
    const auto run_point = [&](const char* label, const StrategyConfig& s,
                               float rho) {
      bench::CellRecorder recorder(label);
      recorder.Param("dataset", dataset)
          .Param("strategy", StrategyName(s.kind))
          .Param("rho", static_cast<double>(rho))
          .Param("layers", depth)
          .Param("epochs", epochs);
      const RhoPoint point = RunPoint(graph, split, s, epochs, hidden, depth);
      recorder.Record("test_accuracy", point.accuracy);
      recorder.Record("mad", point.mad);
      return point;
    };

    const RhoPoint baseline =
        run_point("GCN", StrategyConfig::None(), 0.0f);
    std::printf("\n--- %s (chance %.1f%%, L=%d) ---\n", dataset.c_str(),
                100.0 / graph.num_classes(), depth);
    ResultTable table({"setting", "acc(%)", "MAD"});
    table.StreamTo(stdout);
    table.AddRow({"GCN (no skip)", ResultTable::Cell(baseline.accuracy),
                  ResultTable::Cell(baseline.mad, 4)});
    char label[32];
    for (const float rho : rhos) {
      const RhoPoint u =
          run_point("SkipNode-U", StrategyConfig::SkipNodeU(rho), rho);
      std::snprintf(label, sizeof(label), "SkipNode-U %.1f", rho);
      table.AddRow({label, ResultTable::Cell(u.accuracy),
                    ResultTable::Cell(u.mad, 4)});
      const RhoPoint b =
          run_point("SkipNode-B", StrategyConfig::SkipNodeB(rho), rho);
      std::snprintf(label, sizeof(label), "SkipNode-B %.1f", rho);
      table.AddRow({label, ResultTable::Cell(b.accuracy),
                    ResultTable::Cell(b.mad, 4)});
    }
  }
  std::printf(
      "\nExpected shape (paper Fig. 5): the vanilla 32-layer GCN sits near "
      "chance with MAD ~ 0; SkipNode accuracy improves as rho grows (the "
      "deeper the model, the larger the best rho) and its MAD stays "
      "positive.\n");
}

}  // namespace
}  // namespace skipnode

int main() {
  skipnode::Main();
  return 0;
}
