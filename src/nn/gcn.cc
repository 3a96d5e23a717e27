// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/gcn.h"

#include "base/check.h"

namespace skipnode {

GcnModel::GcnModel(const ModelConfig& config, Rng& rng, bool residual,
                   std::string name)
    : Model(std::move(name)), config_(config), residual_(residual) {
  SKIPNODE_CHECK(config.num_layers >= 2);
  SKIPNODE_CHECK(config.in_dim > 0 && config.hidden_dim > 0 &&
                 config.out_dim > 0);
  for (int l = 0; l < config.num_layers; ++l) {
    const int in = l == 0 ? config.in_dim : config.hidden_dim;
    const int out = l == config.num_layers - 1 ? config.out_dim
                                               : config.hidden_dim;
    layers_.emplace_back(*this, this->name() + ".conv" + std::to_string(l),
                         in, out, rng);
  }
}

ForwardResult GcnModel::Forward(Tape& tape, StrategyContext& ctx,
                                bool training, Rng& rng) {
  const int num_layers = config_.num_layers;
  SKIPNODE_CHECK(ctx.batch() == nullptr ||
                 static_cast<int>(ctx.batch()->layers.size()) == num_layers);
  Var x = ctx.Features(tape);
  Var logits;
  for (int l = 0; l < num_layers; ++l) {
    Var h = tape.Dropout(x, config_.dropout, training, rng);
    // A_hat (X W): multiplying by W first keeps the SpMM at the narrow width.
    h = layers_[l].Apply(tape, h);

    // Every propagation is one hop and every other op here is row-wise, so
    // layer l may compute only the rows an eval row plan reads
    // num_layers - 1 - l hops below the output.
    const int depth = num_layers - 1 - l;
    Var conv;
    if (l > 0 && l < num_layers - 1) {
      const Var pre = ctx.OutputRows(tape, l, x);  // X^(l-1), Eq. 4's skip.
      if (!residual_) {
        // Combine input is the raw convolution: eligible for the fused
        // masked-SpMM path.
        conv = ctx.PropagateMiddle(tape, l, pre, h, depth);
      } else {
        // The residual add sits between the SpMM and the combine, so ResGCN
        // keeps the unfused path.
        conv = tape.Add(ctx.Propagate(tape, l, h, depth), pre);
        conv = ctx.TransformMiddle(tape, pre, conv);
      }
    } else {
      conv = ctx.Propagate(tape, l, h, depth);
      if (l == 0) conv = ctx.TransformBoundary(tape, conv);
    }
    if (l == num_layers - 1) {
      logits = conv;
    } else {
      x = tape.Relu(conv);
    }
  }
  // x is the last hidden layer's output, the classifying conv's input.
  return {.logits = logits, .penultimate = x};
}

}  // namespace skipnode
