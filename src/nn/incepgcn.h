// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// IncepGCN (Kazi et al. 2019 / the DropEdge-paper formulation): an input
// projection feeds three parallel convolution branches with different
// receptive fields; branch outputs are concatenated into a classifier head.
// "num_layers = L" sets the deepest branch to L-1 convolutions (the input
// projection counts as the remaining layer), with the other branches at
// roughly half and a quarter of that depth.

#ifndef SKIPNODE_NN_INCEPGCN_H_
#define SKIPNODE_NN_INCEPGCN_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class IncepGcnModel : public Model {
 public:
  IncepGcnModel(const ModelConfig& config, Rng& rng);

  Var Forward(Tape& tape, StrategyContext& ctx, bool training,
              Rng& rng) override;
  std::vector<Parameter*> Parameters() override;
  const std::string& name() const override { return name_; }

  // Branch depths used for a given total layer budget (exposed for tests).
  static std::vector<int> BranchDepths(int num_layers);

 private:
  std::string name_ = "IncepGCN";
  ModelConfig config_;
  std::unique_ptr<Linear> input_proj_;
  // convs_[b][i] = i-th convolution of branch b.
  std::vector<std::vector<std::unique_ptr<Linear>>> branches_;
  std::unique_ptr<Linear> head_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_INCEPGCN_H_
