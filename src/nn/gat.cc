// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/gat.h"

#include "base/check.h"

namespace skipnode {

GatModel::GatModel(const ModelConfig& config, Rng& rng)
    : Model("GAT"), config_(config) {
  SKIPNODE_CHECK(config.num_layers >= 2);
  SKIPNODE_CHECK(config.gat_heads >= 1);
  SKIPNODE_CHECK_MSG(config.hidden_dim % config.gat_heads == 0,
                     "hidden_dim %d must divide into %d heads",
                     config.hidden_dim, config.gat_heads);
  const int head_dim = config.hidden_dim / config.gat_heads;
  for (int l = 0; l < config.num_layers; ++l) {
    const bool last = l == config.num_layers - 1;
    const int in = l == 0 ? config.in_dim : config.hidden_dim;
    const int out = last ? config.out_dim : head_dim;
    const int heads = last ? 1 : config.gat_heads;
    std::vector<Head> layer;
    for (int k = 0; k < heads; ++k) {
      const std::string prefix = "GAT.layer" + std::to_string(l) +
                                 ".head" + std::to_string(k);
      Head head;
      head.weight = &AddParameter(prefix + ".weight",
                                  Matrix::GlorotUniform(in, out, rng));
      head.attn_src = &AddParameter(prefix + ".attn_src",
                                    Matrix::GlorotUniform(out, 1, rng));
      head.attn_dst = &AddParameter(prefix + ".attn_dst",
                                    Matrix::GlorotUniform(out, 1, rng));
      layer.push_back(head);
    }
    layers_.push_back(std::move(layer));
  }
}

Var GatModel::ApplyHead(Tape& tape, const Head& head, Var x,
                        const std::shared_ptr<const CsrMatrix>& pattern) {
  Var h = tape.MatMul(x, tape.Leaf(*head.weight));
  Var score_src = tape.MatMul(h, tape.Leaf(*head.attn_src));
  Var score_dst = tape.MatMul(h, tape.Leaf(*head.attn_dst));
  return tape.GatAggregate(pattern, h, score_src, score_dst);
}

ForwardResult GatModel::Forward(Tape& tape, StrategyContext& ctx,
                                bool training, Rng& rng) {
  const int num_layers = config_.num_layers;
  Var x = ctx.Features(tape);
  Var logits;
  for (int l = 0; l < num_layers; ++l) {
    const Var pre = x;
    Var dropped = tape.Dropout(x, config_.dropout, training, rng);
    // The strategy's adjacency fixes the attention support (values unused),
    // so DropEdge/DropNode reshape the attention graph too.
    const auto pattern = ctx.LayerAdjacency(l);
    Var conv;
    if (layers_[l].size() == 1) {
      conv = ApplyHead(tape, layers_[l][0], dropped, pattern);
    } else {
      std::vector<Var> head_outputs;
      head_outputs.reserve(layers_[l].size());
      for (const Head& head : layers_[l]) {
        head_outputs.push_back(ApplyHead(tape, head, dropped, pattern));
      }
      conv = tape.ConcatCols(head_outputs);
    }
    const bool middle = l > 0 && l < num_layers - 1;
    if (middle) {
      conv = ctx.TransformMiddle(tape, pre, conv);
    } else if (l == 0) {
      conv = ctx.TransformBoundary(tape, conv);
    }
    if (l == num_layers - 1) {
      logits = conv;
    } else {
      x = tape.Relu(conv);
    }
  }
  return {.logits = logits, .penultimate = x};
}

}  // namespace skipnode
