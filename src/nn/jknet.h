// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// JKNet (Xu et al. 2018), concatenation variant: every convolution layer's
// output feeds a jumping-knowledge head, so shallow representations survive
// even when deep ones over-smooth.

#ifndef SKIPNODE_NN_JKNET_H_
#define SKIPNODE_NN_JKNET_H_

#include <vector>

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class JkNetModel : public Model {
 public:
  JkNetModel(const ModelConfig& config, Rng& rng);

  ForwardResult Forward(Tape& tape, StrategyContext& ctx, bool training,
                        Rng& rng) override;

 private:
  ModelConfig config_;
  std::vector<Linear> convs_;  // num_layers convolutions.
  Linear head_;                // (L * hidden) -> out_dim.
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_JKNET_H_
