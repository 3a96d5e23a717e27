// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/sgc.h"

#include "base/check.h"

namespace skipnode {

SgcModel::SgcModel(const ModelConfig& config, Rng& rng)
    : Model("SGC"), config_(config) {
  SKIPNODE_CHECK(config.num_layers >= 1);
  classifier_ =
      Linear(*this, "SGC.classifier", config.in_dim, config.out_dim, rng);
}

ForwardResult SgcModel::Forward(Tape& tape, StrategyContext& ctx,
                                bool training, Rng& rng) {
  // The propagation has no trainable pieces, but running it through the tape
  // keeps strategies (DropEdge topologies, SkipNode skips) uniform across
  // backbones; gradients stop at the constant features anyway.
  Var x = ctx.Features(tape);
  for (int k = 0; k < config_.num_layers; ++k) {
    const Var pre = x;
    x = ctx.PropagateMiddle(tape, k, pre, x);
  }
  const Var dropped = tape.Dropout(x, config_.dropout, training, rng);
  return {.logits = classifier_.Apply(tape, dropped), .penultimate = x};
}

}  // namespace skipnode
