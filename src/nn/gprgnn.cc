// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/gprgnn.h"

#include <cmath>

namespace skipnode {

GprGnnModel::GprGnnModel(const ModelConfig& config, Rng& rng)
    : AppnpModel(config, rng, "GPRGNN") {
  const int k = config.num_layers;
  Matrix init(1, k + 1);
  // PPR profile: gamma_j = alpha (1-alpha)^j, last hop takes the remainder.
  for (int j = 0; j < k; ++j) {
    init(0, j) = config.alpha * std::pow(1.0f - config.alpha, j);
  }
  init(0, k) = std::pow(1.0f - config.alpha, k);
  gammas_ = &AddParameter("GPRGNN.gammas", std::move(init));
}

ForwardResult GprGnnModel::Forward(Tape& tape, StrategyContext& ctx,
                                   bool training, Rng& rng) {
  Var h = Mlp(tape, ctx.Features(tape), training, rng);
  std::vector<Var> hops = {h};
  Var z = h;
  for (int k = 0; k < config_.num_layers; ++k) {
    const Var pre = z;
    z = ctx.PropagateMiddle(tape, k, pre, z);
    hops.push_back(z);
  }
  const Var out = tape.LinearCombination(hops, tape.Leaf(*gammas_));
  return {.logits = out, .penultimate = out};
}

}  // namespace skipnode
