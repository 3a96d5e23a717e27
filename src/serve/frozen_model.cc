// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "serve/frozen_model.h"

#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "autograd/tape.h"
#include "base/check.h"
#include "base/telemetry.h"
#include "nn/checkpoint.h"
#include "nn/model_factory.h"
#include "tensor/ops.h"

namespace skipnode {

FrozenModel FrozenModel::Freeze(Model& model, const Graph& graph,
                                const StrategyConfig& strategy) {
  const ScopedTimer timer("serve.freeze", /*items=*/graph.num_nodes());
  // Eval-mode forwards never draw from the Rng (dropout is identity and the
  // sampling strategies are disabled when training=false); this Rng only
  // satisfies Model::Forward's signature. The value is irrelevant.
  Rng rng(0);
  Tape tape;
  StrategyContext ctx(graph, strategy, /*training=*/false, rng);
  Var logits = model.Forward(tape, ctx, /*training=*/false, rng);

  FrozenModel frozen;
  frozen.model_name_ = model.name();
  frozen.logits_ = logits.value();
  frozen.embeddings_ = model.Penultimate();
  ServingHead head;
  if (model.ExportServingHead(&head)) {
    SKIPNODE_CHECK(head.weight.rows() == frozen.embeddings_.cols());
    SKIPNODE_CHECK(head.weight.cols() == frozen.logits_.cols());
    frozen.head_ = std::move(head);
  }
  return frozen;
}

std::unique_ptr<FrozenModel> FrozenModel::TryFromCheckpoint(
    const std::string& directory, const std::string& model_name,
    const ModelConfig& config, const Graph& graph,
    const StrategyConfig& strategy, std::string* error) {
  char message[512];
  const auto fail = [&](const char* text) -> std::unique_ptr<FrozenModel> {
    if (error != nullptr) *error = text;
    return nullptr;
  };

  std::vector<CheckpointEntry> entries;
  if (!ReadCheckpointManifest(directory, &entries)) {
    std::snprintf(message, sizeof(message),
                  "serve: no readable checkpoint manifest under '%s'",
                  directory.c_str());
    return fail(message);
  }
  std::map<std::string, std::pair<int, int>> shapes;
  for (const CheckpointEntry& entry : entries) {
    shapes.emplace(entry.name, std::make_pair(entry.rows, entry.cols));
  }

  // The initial weights are overwritten by the load; the Rng value is
  // irrelevant.
  Rng rng(0);
  std::unique_ptr<Model> model = MakeModel(model_name, config, rng);

  // Validate the manifest architecture against the requested ModelConfig
  // before any kernel sees a bad shape.
  const std::vector<Parameter*> parameters = model->Parameters();
  if (parameters.size() != shapes.size()) {
    std::snprintf(
        message, sizeof(message),
        "serve: checkpoint '%s' holds %zu parameters but %s(layers=%d, "
        "hidden=%d) has %zu — the saved model was a different architecture",
        directory.c_str(), shapes.size(), model_name.c_str(),
        config.num_layers, config.hidden_dim, parameters.size());
    return fail(message);
  }
  for (const Parameter* param : parameters) {
    const auto entry = shapes.find(param->name);
    if (entry == shapes.end()) {
      std::snprintf(
          message, sizeof(message),
          "serve: checkpoint '%s' has no parameter '%s' — the saved model "
          "was a different architecture than %s(layers=%d, hidden=%d)",
          directory.c_str(), param->name.c_str(), model_name.c_str(),
          config.num_layers, config.hidden_dim);
      return fail(message);
    }
    if (entry->second.first != param->value.rows() ||
        entry->second.second != param->value.cols()) {
      std::snprintf(
          message, sizeof(message),
          "serve: checkpoint parameter '%s' is %dx%d but the requested "
          "ModelConfig needs %dx%d — check --layers/--hidden/feature dims",
          param->name.c_str(), entry->second.first, entry->second.second,
          param->value.rows(), param->value.cols());
      return fail(message);
    }
  }
  if (!LoadModelParameters(*model, directory)) {
    std::snprintf(message, sizeof(message),
                  "serve: checkpoint load from '%s' failed after the "
                  "manifest validated — missing or corrupt parameter CSV",
                  directory.c_str());
    return fail(message);
  }
  return std::make_unique<FrozenModel>(Freeze(*model, graph, strategy));
}

Matrix FrozenModel::Logits(const std::vector<int>& node_ids) const {
  if (!has_linear_head()) return GatherRows(logits_, node_ids);
  // Row-sliced recompute: per-output-row Gemm accumulation does not depend
  // on which other rows are in the batch, and the bias add is one float add
  // per element — both bitwise match the freeze-time full forward
  // (tape.MatMul + tape.AddRowBroadcast).
  Matrix out = MatMul(GatherRows(embeddings_, node_ids), head_.weight);
  if (!head_.bias.empty()) {
    for (int r = 0; r < out.rows(); ++r) {
      float* row = out.row(r);
      for (int c = 0; c < out.cols(); ++c) row[c] += head_.bias(0, c);
    }
  }
  return out;
}

std::vector<int> FrozenModel::Predict(const std::vector<int>& node_ids) const {
  const Matrix logits = Logits(node_ids);
  std::vector<int> classes(node_ids.size(), 0);
  for (int r = 0; r < logits.rows(); ++r) {
    const float* row = logits.row(r);
    int best = 0;
    for (int c = 1; c < logits.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    classes[static_cast<size_t>(r)] = best;
  }
  return classes;
}

Matrix FrozenModel::Embeddings(const std::vector<int>& node_ids) const {
  return GatherRows(embeddings_, node_ids);
}

}  // namespace skipnode
