// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/appnp.h"

#include "base/check.h"

namespace skipnode {

AppnpModel::AppnpModel(const ModelConfig& config, Rng& rng)
    : config_(config) {
  SKIPNODE_CHECK(config.num_layers >= 1);
  lin1_ = std::make_unique<Linear>(name_ + ".lin1", config.in_dim,
                                   config.hidden_dim, rng);
  lin2_ = std::make_unique<Linear>(name_ + ".lin2", config.hidden_dim,
                                   config.out_dim, rng);
}

Var AppnpModel::Mlp(Tape& tape, Var x, bool training, Rng& rng) {
  Var h = tape.Dropout(x, config_.dropout, training, rng);
  h = tape.Relu(lin1_->Apply(tape, h));
  h = tape.Dropout(h, config_.dropout, training, rng);
  return lin2_->Apply(tape, h);
}

Var AppnpModel::Forward(Tape& tape, StrategyContext& ctx, bool training,
                        Rng& rng) {
  Var h = Mlp(tape, ctx.Features(tape), training, rng);
  Var z = h;
  for (int k = 0; k < config_.num_layers; ++k) {
    const Var pre = z;
    Var step = tape.Axpby(tape.SpMM(ctx.LayerAdjacency(k), z), h,
                          1.0f - config_.alpha, config_.alpha);
    z = ctx.TransformMiddle(tape, pre, step);
  }
  StashPenultimate(z);
  return z;
}

std::vector<Parameter*> AppnpModel::Parameters() {
  std::vector<Parameter*> params;
  lin1_->CollectParameters(params);
  lin2_->CollectParameters(params);
  return params;
}

}  // namespace skipnode
