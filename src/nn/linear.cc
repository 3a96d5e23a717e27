// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "nn/linear.h"

namespace skipnode {

Linear::Linear(Model& owner, const std::string& name, int in_dim,
               int out_dim, Rng& rng)
    : weight_(&owner.AddParameter(name + ".weight",
                                  Matrix::GlorotUniform(in_dim, out_dim, rng))),
      bias_(&owner.AddParameter(name + ".bias", Matrix(1, out_dim))) {}

Var Linear::Apply(Tape& tape, Var x) const {
  Var out = tape.MatMul(x, tape.Leaf(*weight_));
  return tape.AddRowBroadcast(out, tape.Leaf(*bias_));
}

}  // namespace skipnode
