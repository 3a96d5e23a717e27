// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// APPNP (Klicpera et al. 2019): an MLP predicts per-node logits H, then
// personalised-PageRank propagation smooths them:
//   Z^(0) = H,  Z^(k+1) = (1-alpha) A_hat Z^(k) + alpha H.
// `num_layers` is the number of propagation steps K. Strategies hook into
// each propagation step (SkipNode lets sampled nodes skip a step).

#ifndef SKIPNODE_NN_APPNP_H_
#define SKIPNODE_NN_APPNP_H_

#include <string>

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class AppnpModel : public Model {
 public:
  AppnpModel(const ModelConfig& config, Rng& rng)
      : AppnpModel(config, rng, "APPNP") {}

  ForwardResult Forward(Tape& tape, StrategyContext& ctx, bool training,
                        Rng& rng) override;

 protected:
  // GPRGNN's constructor. The MLP keeps its APPNP.lin* parameter names,
  // which GPRGNN checkpoints carry.
  AppnpModel(const ModelConfig& config, Rng& rng, std::string name);

  // Shared by GPRGNN: dropout -> linear -> relu -> dropout -> linear.
  Var Mlp(Tape& tape, Var x, bool training, Rng& rng);

  ModelConfig config_;
  Linear lin1_;
  Linear lin2_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_APPNP_H_
