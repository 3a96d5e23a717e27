// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/link_trainer.h"

#include <utility>

#include "base/check.h"
#include "train/metrics.h"
#include "train/optimizer.h"

namespace skipnode {
namespace {

// Scores each edge as <z_u, z_v> given an embedding matrix.
std::vector<float> ScoreEdges(const Matrix& embeddings,
                              const EdgeList& edges) {
  std::vector<float> scores;
  scores.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    double dot = 0.0;
    const float* zu = embeddings.row(u);
    const float* zv = embeddings.row(v);
    for (int j = 0; j < embeddings.cols(); ++j) {
      dot += static_cast<double>(zu[j]) * zv[j];
    }
    scores.push_back(static_cast<float>(dot));
  }
  return scores;
}

}  // namespace

LinkResult TrainLinkPredictor(Model& encoder, const Graph& message_graph,
                              const LinkSplit& split,
                              const StrategyConfig& strategy,
                              const LinkTrainOptions& options) {
  SKIPNODE_CHECK(!split.train_edges.empty());
  SKIPNODE_CHECK(options.epochs >= 0);
  SKIPNODE_CHECK(options.eval_every >= 1);
  Rng rng(options.seed);
  Adam optimizer(options.learning_rate, options.weight_decay);
  const std::vector<Parameter*> parameters = encoder.Parameters();
  const int n = message_graph.num_nodes();

  LinkResult result;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    // --- Training step: BCE over positives + equally many uniform negatives.
    {
      Tape tape;
      StrategyContext ctx(message_graph, strategy, /*training=*/true, rng);
      const Var z = encoder.Forward(tape, ctx, /*training=*/true, rng).logits;

      std::vector<int> heads, tails;
      std::vector<float> targets;
      heads.reserve(2 * split.train_edges.size());
      tails.reserve(2 * split.train_edges.size());
      targets.reserve(2 * split.train_edges.size());
      for (const auto& [u, v] : split.train_edges) {
        heads.push_back(u);
        tails.push_back(v);
        targets.push_back(1.0f);
      }
      for (size_t i = 0; i < split.train_edges.size(); ++i) {
        heads.push_back(static_cast<int>(rng.UniformInt(n)));
        tails.push_back(static_cast<int>(rng.UniformInt(n)));
        targets.push_back(0.0f);
      }
      Var scores = tape.RowDots(tape.GatherRows(z, std::move(heads)),
                                tape.GatherRows(z, std::move(tails)));
      Var loss = tape.BceWithLogits(scores, targets);
      ZeroGrad(parameters);
      tape.Backward(loss);
      optimizer.Step(parameters);
    }

    // --- Periodic ranked evaluation.
    if (epoch % options.eval_every != 0 && epoch != options.epochs - 1) {
      continue;
    }
    Tape tape;
    StrategyContext ctx(message_graph, strategy, /*training=*/false, rng);
    const Var z = encoder.Forward(tape, ctx, /*training=*/false, rng).logits;
    const Matrix& embeddings = z.value();
    const std::vector<float> neg_scores =
        ScoreEdges(embeddings, split.eval_neg);
    const std::vector<float> val_scores =
        ScoreEdges(embeddings, split.val_pos);
    const double val_hits =
        HitsAtK(val_scores, neg_scores, options.selection_k);
    if (val_hits >= result.best_val_hits || result.best_epoch < 0) {
      result.best_val_hits = val_hits;
      result.best_epoch = epoch;
      const std::vector<float> test_scores =
          ScoreEdges(embeddings, split.test_pos);
      result.test_hits10 = HitsAtK(test_scores, neg_scores, 10);
      result.test_hits50 = HitsAtK(test_scores, neg_scores, 50);
      result.test_hits100 = HitsAtK(test_scores, neg_scores, 100);
    }
  }
  return result;
}

}  // namespace skipnode
