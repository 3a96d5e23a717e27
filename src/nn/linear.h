// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Dense linear layer (x W + b) reused by every backbone: the graph
// convolution's weight, input/output MLPs, and JKNet/IncepGCN classifier
// heads. The parameters belong to the Model that built the layer.

#ifndef SKIPNODE_NN_LINEAR_H_
#define SKIPNODE_NN_LINEAR_H_

#include <string>

#include "autograd/tape.h"
#include "base/rng.h"
#include "nn/model.h"

namespace skipnode {

class Linear {
 public:
  // Holds no parameters; assign a constructed layer before Apply.
  Linear() = default;
  // Registers `name`.weight (Glorot-uniform from `rng`) and `name`.bias
  // (zero) on `owner`, in that order.
  Linear(Model& owner, const std::string& name, int in_dim, int out_dim,
         Rng& rng);

  // Returns x * W + b.
  Var Apply(Tape& tape, Var x) const;

 private:
  Parameter* weight_ = nullptr;
  Parameter* bias_ = nullptr;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_LINEAR_H_
