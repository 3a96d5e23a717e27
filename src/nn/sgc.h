// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// SGC (Wu et al. 2019): A_hat^K X followed by one linear layer — graph
// convolution without nonlinearities or per-layer weights. Included as the
// paper's related-work simplification baseline; `num_layers` = K.

#ifndef SKIPNODE_NN_SGC_H_
#define SKIPNODE_NN_SGC_H_

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class SgcModel : public Model {
 public:
  SgcModel(const ModelConfig& config, Rng& rng);

  ForwardResult Forward(Tape& tape, StrategyContext& ctx, bool training,
                        Rng& rng) override;

 private:
  ModelConfig config_;
  Linear classifier_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_SGC_H_
