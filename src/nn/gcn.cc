// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/gcn.h"

#include "base/check.h"

namespace skipnode {

GcnModel::GcnModel(const ModelConfig& config, Rng& rng, bool residual,
                   std::string name)
    : name_(std::move(name)), config_(config), residual_(residual) {
  SKIPNODE_CHECK(config.num_layers >= 2);
  SKIPNODE_CHECK(config.in_dim > 0 && config.hidden_dim > 0 &&
                 config.out_dim > 0);
  for (int l = 0; l < config.num_layers; ++l) {
    const int in = l == 0 ? config.in_dim : config.hidden_dim;
    const int out = l == config.num_layers - 1 ? config.out_dim
                                               : config.hidden_dim;
    layers_.push_back(std::make_unique<Linear>(
        name_ + ".conv" + std::to_string(l), in, out, rng));
  }
}

Var GcnModel::Forward(Tape& tape, StrategyContext& ctx, bool training,
                      Rng& rng) {
  const int num_layers = config_.num_layers;
  const bool full_graph = ctx.batch() == nullptr;
  SKIPNODE_CHECK(full_graph ||
                 static_cast<int>(ctx.batch()->layers.size()) == num_layers);
  Var x = ctx.Features(tape);
  for (int l = 0; l < num_layers; ++l) {
    Var h = tape.Dropout(x, config_.dropout, training, rng);
    // A_hat (X W): multiplying by W first keeps the SpMM at the narrow width.
    h = layers_[l]->Apply(tape, h);

    Var conv;
    if (l > 0 && l < num_layers - 1) {
      const Var pre = ctx.OutputRows(tape, l, x);  // X^(l-1), Eq. 4's skip.
      if (!residual_) {
        // Combine input is the raw convolution: eligible for the fused
        // masked-SpMM path.
        conv = ctx.PropagateMiddle(tape, l, pre, h);
      } else {
        // The residual add sits between the SpMM and the combine, so ResGCN
        // keeps the unfused path.
        conv = tape.Add(tape.SpMM(ctx.LayerAdjacency(l), h), pre);
        conv = ctx.TransformMiddle(tape, pre, conv);
      }
    } else {
      conv = tape.SpMM(ctx.LayerAdjacency(l), h);
      if (l == 0) conv = ctx.TransformBoundary(tape, conv);
    }
    if (l == num_layers - 1) {
      x = conv;
    } else {
      x = tape.Relu(conv);
      if (l == num_layers - 2 && full_graph) StashPenultimate(x);
    }
  }
  return x;
}

std::vector<Parameter*> GcnModel::Parameters() {
  std::vector<Parameter*> params;
  for (const auto& layer : layers_) layer->CollectParameters(params);
  return params;
}

}  // namespace skipnode
