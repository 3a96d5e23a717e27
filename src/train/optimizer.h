// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The optimizer: Adam with *coupled* weight decay (added to the gradient,
// i.e. classic L2 regularisation). The paper's weight-over-decaying analysis
// (Section 4.2) depends on the regulariser dominating when the
// classification gradient vanishes, which is exactly this formulation.

#ifndef SKIPNODE_TRAIN_OPTIMIZER_H_
#define SKIPNODE_TRAIN_OPTIMIZER_H_

#include <unordered_map>
#include <vector>

#include "autograd/tape.h"

namespace skipnode {

// Clears the accumulated gradient of every parameter.
void ZeroGrad(const std::vector<Parameter*>& parameters);

// Adam (Kingma & Ba 2015) with L2-coupled weight decay, the configuration
// used throughout the paper's experiments: beta1 = 0.9, beta2 = 0.999,
// epsilon = 1e-8.
class Adam {
 public:
  explicit Adam(float learning_rate, float weight_decay = 0.0f)
      : learning_rate_(learning_rate), weight_decay_(weight_decay) {}

  // Applies one update from the accumulated gradients (incl. weight decay).
  void Step(const std::vector<Parameter*>& parameters);

 private:
  struct Moments {
    Matrix m;
    Matrix v;
  };

  float learning_rate_;
  float weight_decay_;
  int step_count_ = 0;
  std::unordered_map<Parameter*, Moments> moments_;
};

}  // namespace skipnode

#endif  // SKIPNODE_TRAIN_OPTIMIZER_H_
