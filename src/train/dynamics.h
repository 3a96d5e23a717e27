// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Figure-2 instrumentation: trains a model while recording, per epoch, the
// three quantities whose joint collapse the paper identifies as the cause of
// deep-GCN failure:
//   (a) MAD of the penultimate representation           (over-smoothing),
//   (b) gradient at the classification layer            (gradient vanishing),
//   (c) total L2 norm of the model weights              (weight over-decay).
// It is a view over TrainNodeClassifier's training loop, not a loop of its
// own: the series are read from the trainer's per-epoch callback plus one
// dLoss/dlogits probe inside the step, so the trajectory is exactly the one
// TrainNodeClassifier trains at the same seed. Defined in trainer.cc,
// beside the loop, which keeps that probe out of every header.

#ifndef SKIPNODE_TRAIN_DYNAMICS_H_
#define SKIPNODE_TRAIN_DYNAMICS_H_

#include <vector>

#include "core/strategies.h"
#include "graph/graph.h"
#include "graph/splits.h"
#include "nn/model.h"
#include "train/trainer.h"

namespace skipnode {

struct DynamicsRecord {
  // One entry per epoch.
  std::vector<float> mad;
  // Frobenius norm of dLoss/dLogits restricted to training rows.
  std::vector<float> output_gradient_norm;
  // Gradient norm of the first (input-layer) weight matrix: the quantity
  // that back-propagation-induced vanishing drives to zero in deep stacks
  // (Figure 2b). SkipNode keeps it alive by letting gradients bypass
  // convolutions through skipped rows.
  std::vector<float> first_layer_gradient_norm;
  // Signed sum of dLoss/dLogits over training rows and classes — Theorem 1
  // predicts ~0 once the model over-smooths under class-balanced training.
  std::vector<float> output_gradient_signed_sum;
  // Sum of per-parameter L2 norms.
  std::vector<float> weight_norm;
  std::vector<float> train_loss;
  std::vector<float> val_accuracy;
};

// TrainNodeClassifier (full-batch, no guardrails) recording the dynamics;
// `options` controls epochs/optimiser. Evaluation (MAD + val accuracy) runs
// every epoch and never stops early: options.eval_every and
// options.patience are overridden to 1 and 0.
DynamicsRecord TrainWithDynamics(Model& model, const Graph& graph,
                                 const Split& split,
                                 const StrategyConfig& strategy,
                                 const TrainOptions& options);

}  // namespace skipnode

#endif  // SKIPNODE_TRAIN_DYNAMICS_H_
