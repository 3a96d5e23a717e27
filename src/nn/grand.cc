// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/grand.h"

#include "base/check.h"
#include "core/skipnode.h"

namespace skipnode {

GrandModel::GrandModel(const ModelConfig& config, Rng& rng)
    : Model("GRAND"), config_(config) {
  SKIPNODE_CHECK(config.num_layers >= 1);
  lin1_ = Linear(*this, "GRAND.lin1", config.in_dim, config.hidden_dim, rng);
  lin2_ = Linear(*this, "GRAND.lin2", config.hidden_dim, config.out_dim, rng);
}

Var GrandModel::View(Tape& tape, StrategyContext& ctx, bool training,
                     Rng& rng) {
  Var x = ctx.Features(tape);
  if (training && config_.grand_dropnode > 0.0f) {
    // GRAND's DropNode augmentation: zero whole feature rows, rescale the
    // rest (this is a *data augmentation*, distinct from the DropNode
    // strategy of Do et al. that resamples the adjacency).
    const std::vector<uint8_t> drop_mask = SampleSkipMaskUniform(
        x.rows(), config_.grand_dropnode, rng);
    Var zeros = tape.Constant(Matrix(x.rows(), x.cols()));
    Var scaled = tape.Scale(x, 1.0f / (1.0f - config_.grand_dropnode));
    x = tape.RowSelect(drop_mask, zeros, scaled);
  }
  // Random propagation: mean of A_hat^k x, k = 0..K.
  Var sum = x;
  Var power = x;
  for (int k = 0; k < config_.num_layers; ++k) {
    power = ctx.PropagateMiddle(tape, k, power, power);
    sum = tape.Add(sum, power);
  }
  Var mean = tape.Scale(sum, 1.0f / static_cast<float>(config_.num_layers + 1));

  Var h = tape.Dropout(mean, config_.dropout, training, rng);
  h = tape.Relu(lin1_.Apply(tape, h));
  h = tape.Dropout(h, config_.dropout, training, rng);
  return lin2_.Apply(tape, h);
}

ForwardResult GrandModel::Forward(Tape& tape, StrategyContext& ctx,
                                  bool training, Rng& rng) {
  const int num_views =
      training ? std::max(1, config_.grand_augmentations) : 1;
  std::vector<Var> views;
  for (int s = 0; s < num_views; ++s) {
    views.push_back(View(tape, ctx, training, rng));
  }
  const Var first = views.front();
  return {.logits = first, .penultimate = first, .views = std::move(views)};
}

Var GrandModel::AuxiliaryLoss(Tape& tape, const ForwardResult& pass) const {
  const std::vector<Var>& views = pass.views;
  if (views.size() < 2 || config_.grand_consistency <= 0.0f) return Var();
  Var total = tape.MseLoss(views[0], views[1]);
  for (size_t s = 2; s < views.size(); ++s) {
    total = tape.Add(total, tape.MseLoss(views[s - 1], views[s]));
  }
  return tape.Scale(total, config_.grand_consistency);
}

}  // namespace skipnode
