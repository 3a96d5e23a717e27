// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/incepgcn.h"

#include <algorithm>

#include "base/check.h"

namespace skipnode {

std::vector<int> IncepGcnModel::BranchDepths(int num_layers) {
  const int deepest = std::max(1, num_layers - 1);
  return {std::max(1, deepest / 4), std::max(1, deepest / 2), deepest};
}

IncepGcnModel::IncepGcnModel(const ModelConfig& config, Rng& rng)
    : Model("IncepGCN"), config_(config) {
  SKIPNODE_CHECK(config.num_layers >= 2);
  input_proj_ = Linear(*this, "IncepGCN.input", config.in_dim,
                       config.hidden_dim, rng);
  const std::vector<int> depths = BranchDepths(config.num_layers);
  for (size_t b = 0; b < depths.size(); ++b) {
    std::vector<Linear>& branch = branches_.emplace_back();
    for (int i = 0; i < depths[b]; ++i) {
      branch.emplace_back(
          *this,
          "IncepGCN.b" + std::to_string(b) + ".conv" + std::to_string(i),
          config.hidden_dim, config.hidden_dim, rng);
    }
  }
  head_ = Linear(*this, "IncepGCN.head",
                 static_cast<int>(depths.size()) * config.hidden_dim,
                 config.out_dim, rng);
}

ForwardResult IncepGcnModel::Forward(Tape& tape, StrategyContext& ctx,
                                     bool training, Rng& rng) {
  Var x = ctx.Features(tape);
  x = tape.Dropout(x, config_.dropout, training, rng);
  Var h0 = tape.Relu(input_proj_.Apply(tape, x));

  std::vector<Var> branch_outputs;
  int layer_index = 0;
  for (const std::vector<Linear>& branch : branches_) {
    Var h = h0;
    for (const Linear& conv_layer : branch) {
      const Var pre = h;
      Var h_dropped = tape.Dropout(h, config_.dropout, training, rng);
      Var conv = ctx.PropagateMiddle(tape, layer_index++, pre,
                                     conv_layer.Apply(tape, h_dropped));
      h = tape.Relu(conv);
    }
    branch_outputs.push_back(h);
  }
  const Var merged = tape.ConcatCols(branch_outputs);
  const Var dropped = tape.Dropout(merged, config_.dropout, training, rng);
  return {.logits = head_.Apply(tape, dropped), .penultimate = merged};
}

}  // namespace skipnode
