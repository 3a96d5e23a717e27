// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Graph Attention Network (Velickovic et al. 2018): per-edge attention
// coefficients replace the fixed normalised adjacency,
//   e_ij = LeakyReLU(a_src . W h_i + a_dst . W h_j),
//   h'_i = sigma( sum_j softmax_j(e_ij) W h_j ),
// with multi-head attention (heads concatenated on middle layers, a single
// head on the output layer). Differences from the original: ReLU instead of
// ELU as sigma (the library's nonlinearity), which does not change the
// attention mechanism.
//
// Strategy integration: the attention pattern is taken from
// StrategyContext::LayerAdjacency, so DropEdge/DropNode also reshape the
// attention support, and SkipNode's RowSelect applies to every middle layer
// exactly as for GCN.

#ifndef SKIPNODE_NN_GAT_H_
#define SKIPNODE_NN_GAT_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/model.h"

namespace skipnode {

class GatModel : public Model {
 public:
  GatModel(const ModelConfig& config, Rng& rng);

  Var Forward(Tape& tape, StrategyContext& ctx, bool training,
              Rng& rng) override;
  std::vector<Parameter*> Parameters() override;
  const std::string& name() const override { return name_; }

 private:
  struct Head {
    std::unique_ptr<Parameter> weight;     // in x head_dim.
    std::unique_ptr<Parameter> attn_src;   // head_dim x 1.
    std::unique_ptr<Parameter> attn_dst;   // head_dim x 1.
  };

  // One attention head's output on `x` over `pattern`.
  Var ApplyHead(Tape& tape, const Head& head, Var x,
                const std::shared_ptr<const CsrMatrix>& pattern);

  std::string name_ = "GAT";
  ModelConfig config_;
  // layers_[l] holds the heads of layer l (middle layers have
  // config.gat_heads heads; the final layer has exactly one).
  std::vector<std::vector<Head>> layers_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_GAT_H_
