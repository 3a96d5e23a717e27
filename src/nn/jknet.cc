// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/jknet.h"

#include "base/check.h"

namespace skipnode {

JkNetModel::JkNetModel(const ModelConfig& config, Rng& rng)
    : Model("JKNet"), config_(config) {
  SKIPNODE_CHECK(config.num_layers >= 2);
  for (int l = 0; l < config.num_layers; ++l) {
    const int in = l == 0 ? config.in_dim : config.hidden_dim;
    convs_.emplace_back(*this, "JKNet.conv" + std::to_string(l), in,
                        config.hidden_dim, rng);
  }
  head_ = Linear(*this, "JKNet.head", config.num_layers * config.hidden_dim,
                 config.out_dim, rng);
}

ForwardResult JkNetModel::Forward(Tape& tape, StrategyContext& ctx,
                                  bool training, Rng& rng) {
  Var x = ctx.Features(tape);
  std::vector<Var> layer_outputs;
  for (int l = 0; l < config_.num_layers; ++l) {
    const Var pre = x;
    Var h = tape.Dropout(x, config_.dropout, training, rng);
    h = convs_[l].Apply(tape, h);
    // Every conv after the first keeps the hidden width, so the strategy's
    // middle combine applies to all of them (the JK head is the classifier)
    // — and the combine input is the raw SpMM, so it fuses.
    Var conv;
    if (l > 0) {
      conv = ctx.PropagateMiddle(tape, l, pre, h);
    } else {
      conv = ctx.TransformBoundary(tape, tape.SpMM(ctx.LayerAdjacency(l), h));
    }
    x = tape.Relu(conv);
    layer_outputs.push_back(x);
  }
  const Var jumped = tape.ConcatCols(layer_outputs);
  const Var dropped = tape.Dropout(jumped, config_.dropout, training, rng);
  return {.logits = head_.Apply(tape, dropped), .penultimate = jumped};
}

}  // namespace skipnode
