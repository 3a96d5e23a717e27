// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// GRAND (Feng et al. 2020), simplified: random propagation (node-feature
// dropping + mean of A_hat powers) produces S augmented views; an MLP
// classifies each view, and a consistency regulariser (mean squared
// difference between the views' logits) is exposed via AuxiliaryLoss().
// Simplification vs the original: consistency is computed on logits rather
// than sharpened softmax distributions — the regularisation pressure is the
// same in direction, and it avoids a dedicated softmax autograd op.

#ifndef SKIPNODE_NN_GRAND_H_
#define SKIPNODE_NN_GRAND_H_

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class GrandModel : public Model {
 public:
  GrandModel(const ModelConfig& config, Rng& rng);

  // A training pass returns grand_augmentations views (at least one), an
  // eval pass one; the logits are the first view's.
  ForwardResult Forward(Tape& tape, StrategyContext& ctx, bool training,
                        Rng& rng) override;
  // Consistency loss over the pass's views (already weighted); invalid for
  // a single-view (eval) pass.
  Var AuxiliaryLoss(Tape& tape, const ForwardResult& pass) const override;

 private:
  // One random-propagation + MLP view.
  Var View(Tape& tape, StrategyContext& ctx, bool training, Rng& rng);

  ModelConfig config_;
  Linear lin1_;
  Linear lin2_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_GRAND_H_
