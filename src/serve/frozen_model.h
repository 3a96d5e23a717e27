// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// FrozenModel: an immutable snapshot of a trained model for inference
// (DESIGN §11). Freezing runs exactly one eval-mode forward — the same pass
// as EvaluateLogits — and captures everything serving needs as owned
// matrices: the full logits table, the penultimate-embedding table, and,
// for models whose classifier is one Linear over Penultimate() (SGC, JKNet,
// GCNII — eval-mode dropout between the two is the identity), the exported
// ServingHead. After Freeze() the source model, its Tape, and the Graph can
// all die; a FrozenModel is safe to share across threads because every
// accessor is a pure read.
//
// Bitwise contract: for any node-id batch, Logits(ids) row i equals row
// ids[i] of EvaluateLogits(model, graph, strategy) bit for bit, at any
// thread count. The linear-head path recomputes rows with the row-sliced
// parallel Gemm (per-output-row accumulation order is independent of which
// rows ride along — DESIGN §7); the general path gathers from the cached
// logits table.

#ifndef SKIPNODE_SERVE_FROZEN_MODEL_H_
#define SKIPNODE_SERVE_FROZEN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "graph/graph.h"
#include "nn/model.h"
#include "tensor/matrix.h"

namespace skipnode {

class FrozenModel {
 public:
  // Runs one eval-mode forward of `model` (bitwise the EvaluateLogits pass)
  // and captures the serving tables. `model` is unchanged apart from its
  // refreshed Penultimate() stash.
  static FrozenModel Freeze(Model& model, const Graph& graph,
                            const StrategyConfig& strategy);

  // Builds `model_name` from `config`, restores its parameters from a
  // SaveModelParameters checkpoint at `directory`, and freezes it. The
  // manifest architecture is validated against the model up front. Returns
  // nullptr and fills *error (when non-null) with a message naming the
  // problem instead of aborting when `directory` holds no valid checkpoint
  // for this architecture: missing/corrupt manifest, parameter-set or shape
  // mismatch, or a corrupt parameter CSV. Serving a --load-dir and
  // validating a hot-swap candidate (DESIGN §12) both go through here, so a
  // bad checkpoint never takes the process down.
  static std::unique_ptr<FrozenModel> TryFromCheckpoint(
      const std::string& directory, const std::string& model_name,
      const ModelConfig& config, const Graph& graph,
      const StrategyConfig& strategy, std::string* error);

  // Logits for the requested nodes, one row per id, in request order.
  // Repeated ids are allowed. Ids must be in [0, num_nodes()).
  Matrix Logits(const std::vector<int>& node_ids) const;

  // Argmax class per requested node (ties break to the lowest class index,
  // matching train/metrics Accuracy).
  std::vector<int> Predict(const std::vector<int>& node_ids) const;

  // Penultimate-embedding rows for the requested nodes.
  Matrix Embeddings(const std::vector<int>& node_ids) const;

  int num_nodes() const { return logits_.rows(); }
  int num_classes() const { return logits_.cols(); }
  int embedding_dim() const { return embeddings_.cols(); }
  const std::string& model_name() const { return model_name_; }
  // True when Logits() recomputes through the exported linear head instead
  // of gathering from the cached table.
  bool has_linear_head() const { return !head_.weight.empty(); }

  // The full tables captured at freeze time.
  const Matrix& full_logits() const { return logits_; }
  const Matrix& embedding_table() const { return embeddings_; }

 private:
  FrozenModel() = default;

  std::string model_name_;
  Matrix logits_;      // num_nodes x num_classes
  Matrix embeddings_;  // num_nodes x embedding_dim
  ServingHead head_;   // empty weight when the model exports no head
};

}  // namespace skipnode

#endif  // SKIPNODE_SERVE_FROZEN_MODEL_H_
