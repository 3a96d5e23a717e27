// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// GPRGNN (Chien et al. 2021): generalised PageRank propagation with
// *learnable* step weights,
//   Z = sum_{k=0..K} gamma_k A_hat^k H,   H = MLP(X),
// gamma initialised to the PPR profile alpha (1-alpha)^k. Learnable gammas
// let the model escape over-smoothing by re-weighting shallow hops — the
// adaptive mechanism the paper cites.

#ifndef SKIPNODE_NN_GPRGNN_H_
#define SKIPNODE_NN_GPRGNN_H_

#include "nn/appnp.h"

namespace skipnode {

class GprGnnModel : public AppnpModel {
 public:
  GprGnnModel(const ModelConfig& config, Rng& rng);

  ForwardResult Forward(Tape& tape, StrategyContext& ctx, bool training,
                        Rng& rng) override;

 private:
  Parameter* gammas_ = nullptr;  // 1 x (num_layers + 1).
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_GPRGNN_H_
