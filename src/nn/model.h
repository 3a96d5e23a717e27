// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Common interface for the GNN backbones. Each Forward() call records one
// computation on the caller's Tape and returns what it computed: one logit
// row per output node plus the representation that feeds the classifier.
// The input rows, the propagation operators and any plug-and-play strategy
// come from the StrategyContext, so every backbone supports every strategy
// through one forward. A Model holds only its parameters: nothing a pass
// computes outlives the pass's Tape.

#ifndef SKIPNODE_NN_MODEL_H_
#define SKIPNODE_NN_MODEL_H_

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "autograd/tape.h"
#include "base/rng.h"
#include "core/strategies.h"
#include "tensor/matrix.h"

namespace skipnode {

// Shared hyper-parameters; model-specific fields are ignored by models that
// do not use them.
struct ModelConfig {
  int in_dim = 0;
  int hidden_dim = 64;
  int out_dim = 0;
  // Number of graph-convolution (or propagation) layers; >= 2.
  int num_layers = 2;
  float dropout = 0.5f;
  // APPNP / GCNII / GPRGNN teleport probability.
  float alpha = 0.1f;
  // GCNII identity-mapping strength lambda (beta_l = log(lambda / l + 1)).
  float gcnii_lambda = 0.5f;
  // GAT: attention heads on middle layers (must divide hidden_dim).
  int gat_heads = 4;
  // GRAND: number of augmentations, feature-drop rate, consistency weight.
  int grand_augmentations = 2;
  float grand_dropnode = 0.5f;
  float grand_consistency = 1.0f;
};

// What one Forward() recorded on the caller's Tape; every Var dies with it,
// so a caller that keeps a value copies it.
struct ForwardResult {
  // A full-graph pass returns N x num_classes logits; a batch pass returns
  // |batch.seeds| x num_classes logits in seed order. A planned evaluation
  // pass (StrategyContext::row_plan(), DESIGN §10) returns N rows of which
  // only the rows the plan reads are the full pass's bit for bit.
  Var logits;
  // The representation feeding the final classification layer, whose
  // smoothness the paper's metrics measure (Figure 2a, Figure 5b). Only a
  // full-graph pass without a row plan computes every node's row of it.
  // Backbones with no distinguished penultimate representation return the
  // logits.
  Var penultimate;
  // GRAND: every augmented view's logits (views.front() is `logits`), which
  // its AuxiliaryLoss compares. Empty for every other backbone.
  std::vector<Var> views;
};

class Model {
 public:
  virtual ~Model() = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  // Builds the forward pass. `ctx` supplies the input rows, the
  // propagation operators and the active plug-and-play strategy
  // (StrategyConfig::None() for the vanilla backbone), over the full graph
  // or over one sampled minibatch; `training` toggles Dropout and per-step
  // strategy sampling. A backbone that applies an eval row plan (GcnModel)
  // computes only the rows the plan reads; the others compute every row.
  virtual ForwardResult Forward(Tape& tape, StrategyContext& ctx,
                                bool training, Rng& rng) = 0;

  // True when Forward accepts a minibatch StrategyContext (sampled
  // training, DESIGN §15). The trainer and the CLI check this before
  // entering sampled mode so unsupported backbones fail with a clear
  // message.
  virtual bool SupportsSampledForward() const { return false; }

  // Auxiliary loss added to the classification loss (weighted by the model),
  // e.g. GRAND's consistency regulariser over `pass.views`. Records on
  // `tape`, the Tape `pass` was recorded on; returns an invalid Var when the
  // model has none.
  virtual Var AuxiliaryLoss(Tape& tape, const ForwardResult& pass) const {
    (void)tape;
    (void)pass;
    return Var();
  }

  // Trainable parameters in registration order, which is construction
  // order. The checkpoint manifest, FaultPlan::parameter_index, the health
  // snapshot and TrainWithDynamics's first-layer gradient all read this
  // order (models_test pins it per backbone).
  std::vector<Parameter*> Parameters() {
    std::vector<Parameter*> parameters;
    for (Parameter& p : parameters_) parameters.push_back(&p);
    return parameters;
  }

  const std::string& name() const { return name_; }

 protected:
  explicit Model(std::string name) : name_(std::move(name)) {}

  // Registers a parameter the model owns; called from constructors only.
  // The reference stays valid for the model's lifetime.
  Parameter& AddParameter(std::string name, Matrix value) {
    return parameters_.emplace_back(std::move(name), std::move(value));
  }

 private:
  friend class Linear;  // Registers its weight and bias.

  std::string name_;
  // A deque never moves its elements on emplace_back, so the references
  // AddParameter hands out stay valid.
  std::deque<Parameter> parameters_;
};

}  // namespace skipnode

#endif  // SKIPNODE_NN_MODEL_H_
