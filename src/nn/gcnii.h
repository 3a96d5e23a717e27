// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// GCNII (Chen et al. 2020): initial residual + identity mapping,
//   H^(l) = ReLU( ( (1-alpha) A_hat H^(l-1) + alpha H^(0) )
//                 ( (1-beta_l) I + beta_l W^(l) ) ),
// beta_l = log(lambda / l + 1). The strongest deep backbone in the paper's
// Table 6; SkipNode still improves it.

#ifndef SKIPNODE_NN_GCNII_H_
#define SKIPNODE_NN_GCNII_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/model.h"

namespace skipnode {

class GcniiModel : public Model {
 public:
  GcniiModel(const ModelConfig& config, Rng& rng);

  Var Forward(Tape& tape, StrategyContext& ctx, bool training,
              Rng& rng) override;
  std::vector<Parameter*> Parameters() override;
  const std::string& name() const override { return name_; }
  bool ExportServingHead(ServingHead* head) override;

 private:
  std::string name_ = "GCNII";
  ModelConfig config_;
  std::unique_ptr<Linear> input_proj_;   // in_dim -> hidden.
  std::vector<std::unique_ptr<Parameter>> conv_weights_;  // hidden x hidden.
  std::unique_ptr<Linear> output_proj_;  // hidden -> out_dim.
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_GCNII_H_
