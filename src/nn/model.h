// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Common interface for the GNN backbones. Each Forward() call records one
// computation on the caller's Tape and returns one logit row per output
// node; the input rows, the propagation operators and any plug-and-play
// strategy come from the StrategyContext, so every backbone supports every
// strategy through one forward.

#ifndef SKIPNODE_NN_MODEL_H_
#define SKIPNODE_NN_MODEL_H_

#include <string>
#include <vector>

#include "autograd/tape.h"
#include "base/rng.h"
#include "core/strategies.h"
#include "tensor/matrix.h"

namespace skipnode {

// Shared hyper-parameters; model-specific fields are ignored by models that
// do not use them.
struct ModelConfig {
  int in_dim = 0;
  int hidden_dim = 64;
  int out_dim = 0;
  // Number of graph-convolution (or propagation) layers; >= 2.
  int num_layers = 2;
  float dropout = 0.5f;
  // APPNP / GCNII / GPRGNN teleport probability.
  float alpha = 0.1f;
  // GCNII identity-mapping strength lambda (beta_l = log(lambda / l + 1)).
  float gcnii_lambda = 0.5f;
  // GAT: attention heads on middle layers (must divide hidden_dim).
  int gat_heads = 4;
  // GRAND: number of augmentations, feature-drop rate, consistency weight.
  int grand_augmentations = 2;
  float grand_dropnode = 0.5f;
  float grand_consistency = 1.0f;
};

// A frozen classification head exported for serving (serve/frozen_model.h):
// eval-mode logits of the exporting model are exactly
//   Penultimate() * weight (+ bias broadcast over rows),
// so an inference service can recompute any logit row from the cached
// penultimate table in O(batch) with the parallel Gemm kernel instead of
// storing or re-deriving the full logits matrix.
struct ServingHead {
  Matrix weight;  // embedding_dim x num_classes
  Matrix bias;    // 1 x num_classes; empty when the head has no bias term
};

class Model {
 public:
  virtual ~Model() = default;

  // Builds the forward pass. `ctx` supplies the input rows, the
  // propagation operators and the active plug-and-play strategy
  // (StrategyConfig::None() for the vanilla backbone), over the full graph
  // or over one sampled minibatch; `training` toggles Dropout and per-step
  // strategy sampling. A full-graph pass returns N x num_classes logits and
  // refreshes Penultimate(); a batch pass returns |batch.seeds| x
  // num_classes logits in seed order and leaves Penultimate() untouched.
  virtual Var Forward(Tape& tape, StrategyContext& ctx, bool training,
                      Rng& rng) = 0;

  // True when Forward accepts a minibatch StrategyContext (sampled
  // training, DESIGN §15). The trainer and the CLI check this before
  // entering sampled mode so unsupported backbones fail with a clear
  // message.
  virtual bool SupportsSampledForward() const { return false; }

  // Auxiliary loss added to the classification loss (weighted by the model),
  // e.g. GRAND's consistency regulariser. Returns an invalid Var when the
  // model has none. Must be called after Forward() on the same tape.
  virtual Var AuxiliaryLoss(Tape& tape) {
    (void)tape;
    return Var();
  }

  // Trainable parameters (owned by the model).
  virtual std::vector<Parameter*> Parameters() = 0;

  virtual const std::string& name() const = 0;

  // The representation feeding the final classification layer, stashed as an
  // owned copy by the latest Forward(). The paper's smoothness metrics
  // (Figure 2a, Figure 5b) and the serving layer's embedding table are
  // computed on this tensor. Models that have no distinguished penultimate
  // representation leave it as the logits. Safe to read at any time — the
  // copy outlives the Tape of the Forward() that produced it; empty (0x0)
  // before the first Forward().
  const Matrix& Penultimate() const { return penultimate_; }

  // Copies the frozen classification head into `head` and returns true for
  // models whose eval-mode logits are exactly one Linear applied to
  // Penultimate() (SGC, JKNet, GCNII — eval-mode Dropout between the two is
  // the identity). Models with propagation or mixing after the penultimate
  // representation return false and leave `head` untouched.
  virtual bool ExportServingHead(ServingHead* head) {
    (void)head;
    return false;
  }

 protected:
  // Called by backbones at the penultimate point of Forward(); copies the
  // node's current value so the stash survives the tape.
  void StashPenultimate(const Var& v) { penultimate_ = v.value(); }

  Matrix penultimate_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_MODEL_H_
