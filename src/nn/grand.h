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

#include <memory>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class GrandModel : public Model {
 public:
  GrandModel(const ModelConfig& config, Rng& rng);

  Var Forward(Tape& tape, StrategyContext& ctx, bool training,
              Rng& rng) override;
  // Consistency loss (already weighted); invalid outside training passes.
  Var AuxiliaryLoss(Tape& tape) override;
  std::vector<Parameter*> Parameters() override;
  const std::string& name() const override { return name_; }

 private:
  // One random-propagation + MLP view.
  Var View(Tape& tape, StrategyContext& ctx, bool training, Rng& rng);

  std::string name_ = "GRAND";
  ModelConfig config_;
  std::unique_ptr<Linear> lin1_;
  std::unique_ptr<Linear> lin2_;
  std::vector<Var> view_logits_;  // Stashed by Forward for AuxiliaryLoss.
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_GRAND_H_
