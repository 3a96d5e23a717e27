// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Vanilla GCN backbone (Kipf & Welling 2017):
//   X^(l) = ReLU( A_hat X^(l-1) W^(l) )                 (Eq. 1 of the paper)
// with Dropout before each convolution. Middle layers (hidden -> hidden)
// route through StrategyContext::TransformMiddle, which is where SkipNode's
// Eq. 4, residual adds, or PairNorm attach.

#ifndef SKIPNODE_NN_GCN_H_
#define SKIPNODE_NN_GCN_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class GcnModel : public Model {
 public:
  // `residual` turns the backbone into ResGCN: conv output += layer input on
  // every middle layer (He-style skip connection baked into the backbone,
  // independent of the plug-and-play strategy).
  GcnModel(const ModelConfig& config, Rng& rng, bool residual = false,
           std::string name = "GCN");

  Var Forward(Tape& tape, StrategyContext& ctx, bool training,
              Rng& rng) override;
  bool SupportsSampledForward() const override { return true; }
  std::vector<Parameter*> Parameters() override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
  ModelConfig config_;
  bool residual_;
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_GCN_H_
