// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Dense linear layer (x W + b) reused by every backbone: the graph
// convolution's weight, input/output MLPs, and JKNet/IncepGCN classifier
// heads.

#ifndef SKIPNODE_NN_LINEAR_H_
#define SKIPNODE_NN_LINEAR_H_

#include <string>
#include <vector>

#include "autograd/tape.h"
#include "base/rng.h"

namespace skipnode {

class Linear {
 public:
  // Glorot-uniform weight; zero bias (omitted entirely if !with_bias).
  Linear(const std::string& name, int in_dim, int out_dim, Rng& rng,
         bool with_bias = true);

  // Returns x * W (+ b).
  Var Apply(Tape& tape, Var x);

  void CollectParameters(std::vector<Parameter*>& out);

 private:
  Parameter weight_;
  bool with_bias_;
  Parameter bias_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_LINEAR_H_
