// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/gcnii.h"

#include <cmath>

#include "base/check.h"

namespace skipnode {

GcniiModel::GcniiModel(const ModelConfig& config, Rng& rng)
    : Model("GCNII"), config_(config) {
  SKIPNODE_CHECK(config.num_layers >= 2);
  input_proj_ = Linear(*this, "GCNII.input", config.in_dim,
                       config.hidden_dim, rng);
  for (int l = 0; l < config.num_layers; ++l) {
    conv_weights_.push_back(&AddParameter(
        "GCNII.conv" + std::to_string(l) + ".weight",
        Matrix::GlorotUniform(config.hidden_dim, config.hidden_dim, rng)));
  }
  output_proj_ = Linear(*this, "GCNII.output", config.hidden_dim,
                        config.out_dim, rng);
}

ForwardResult GcniiModel::Forward(Tape& tape, StrategyContext& ctx,
                                  bool training, Rng& rng) {
  Var x = ctx.Features(tape);
  x = tape.Dropout(x, config_.dropout, training, rng);
  Var h0 = tape.Relu(input_proj_.Apply(tape, x));

  Var h = h0;
  const float alpha = config_.alpha;
  for (int l = 0; l < config_.num_layers; ++l) {
    const Var pre = h;
    Var hd = tape.Dropout(h, config_.dropout, training, rng);
    // Initial residual: M = (1-alpha) A_hat H + alpha H0.
    Var m = tape.Axpby(tape.SpMM(ctx.LayerAdjacency(l), hd), h0,
                       1.0f - alpha, alpha);
    // Identity mapping: (1-beta_l) M + beta_l (M W_l).
    const float beta =
        std::log(config_.gcnii_lambda / static_cast<float>(l + 1) + 1.0f);
    Var mw = tape.MatMul(m, tape.Leaf(*conv_weights_[l]));
    Var block = tape.Axpby(m, mw, 1.0f - beta, beta);
    // Every GCNII conv keeps the hidden width, so all of them are "middle"
    // for the plug-and-play strategies.
    block = ctx.TransformMiddle(tape, pre, block);
    h = tape.Relu(block);
  }
  const Var dropped = tape.Dropout(h, config_.dropout, training, rng);
  return {.logits = output_proj_.Apply(tape, dropped), .penultimate = h};
}

}  // namespace skipnode
