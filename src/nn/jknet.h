// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// JKNet (Xu et al. 2018), concatenation variant: every convolution layer's
// output feeds a jumping-knowledge head, so shallow representations survive
// even when deep ones over-smooth.

#ifndef SKIPNODE_NN_JKNET_H_
#define SKIPNODE_NN_JKNET_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class JkNetModel : public Model {
 public:
  JkNetModel(const ModelConfig& config, Rng& rng);

  Var Forward(Tape& tape, StrategyContext& ctx, bool training,
              Rng& rng) override;
  std::vector<Parameter*> Parameters() override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "JKNet";
  ModelConfig config_;
  std::vector<std::unique_ptr<Linear>> convs_;  // num_layers convolutions.
  std::unique_ptr<Linear> head_;                // (L * hidden) -> out_dim.
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_JKNET_H_
