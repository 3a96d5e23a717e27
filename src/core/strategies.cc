// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "core/strategies.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"
#include "base/telemetry.h"
#include "core/skipnode.h"
#include "tensor/ops.h"

namespace skipnode {

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kNone:
      return "-";
    case StrategyKind::kDropEdge:
      return "DropEdge";
    case StrategyKind::kDropNode:
      return "DropNode";
    case StrategyKind::kPairNorm:
      return "PairNorm";
    case StrategyKind::kSkipConnection:
      return "SkipConn";
    case StrategyKind::kSkipNodeUniform:
      return "SkipNode-U";
    case StrategyKind::kSkipNodeBiased:
      return "SkipNode-B";
  }
  return "?";
}

namespace {

bool IsSkipNode(StrategyKind kind) {
  return kind == StrategyKind::kSkipNodeUniform ||
         kind == StrategyKind::kSkipNodeBiased;
}

// SkipNode rate at the k-th middle combine of a pass: clamp(rate +
// rho_growth * k, 0, 1), constant when rho_growth is 0. Both mask sources —
// the full-graph draw and the sampler's callback — read it.
float ScheduledRho(const StrategyConfig& config, int middle_index) {
  const float rho =
      config.rate + config.rho_growth * static_cast<float>(middle_index);
  if (rho < 0.0f) return 0.0f;
  if (rho > 1.0f) return 1.0f;
  return rho;
}

}  // namespace

EvalRowPlan::EvalRowPlan(const CsrMatrix& adjacency,
                         std::span<const int> read_rows)
    : first_read_(static_cast<size_t>(adjacency.rows()), kNeverRead) {
  const ScopedTimer timer("core.eval_row_plan", /*items=*/adjacency.nnz());
  SKIPNODE_CHECK(adjacency.rows() == adjacency.cols());
  std::vector<int> frontier;
  for (const int r : read_rows) {
    SKIPNODE_CHECK(r >= 0 && r < adjacency.rows());
    if (first_read_[static_cast<size_t>(r)] != kNeverRead) continue;
    first_read_[static_cast<size_t>(r)] = 0;
    frontier.push_back(r);
  }
  // Hop k + 1 reads the rows of hop k and their neighbours; only the rows
  // hop k added can bring in a row not read before. An empty frontier is
  // the fixed point. Walking each frontier in row order reads `col_idx`
  // front to back instead of at random rows; the depths do not depend on
  // the order.
  const int64_t* ptr = adjacency.row_offsets().data();
  const int* col_idx = adjacency.col_idx().data();
  int* first_read = first_read_.data();
  std::vector<int> added;
  for (int depth = 0; !frontier.empty(); ++depth) {
    added.clear();
    std::sort(frontier.begin(), frontier.end());
    for (const int r : frontier) {
      for (int64_t e = ptr[r]; e < ptr[r + 1]; ++e) {
        const int c = col_idx[e];
        if (first_read[c] != kNeverRead) continue;
        first_read[c] = depth + 1;
        added.push_back(c);
      }
    }
    frontier.swap(added);
  }
}

std::vector<uint8_t> EvalRowPlan::UnreadRows(int depth) const {
  SKIPNODE_CHECK(depth >= 0);
  std::vector<uint8_t> unread(first_read_.size());
  bool any_unread = false;
  for (size_t r = 0; r < first_read_.size(); ++r) {
    unread[r] = first_read_[r] > depth;
    any_unread |= unread[r] != 0;
  }
  if (!any_unread) unread.clear();
  return unread;
}

StrategyContext::StrategyContext(const Graph& graph,
                                 const StrategyConfig& config, bool training,
                                 Rng& rng)
    : graph_(graph), config_(config), training_(training), rng_(rng) {
  if (training_ && config_.kind == StrategyKind::kDropEdge &&
      config_.rate > 0.0f) {
    // One sampled topology per pass; the renormalisation here is DropEdge's
    // per-epoch cost.
    shared_adjacency_ = std::make_shared<const CsrMatrix>(DropEdgeAdjacency(
        *graph_.normalized_adjacency(), config_.rate, rng_));
  } else {
    shared_adjacency_ = graph_.normalized_adjacency();
  }
}

StrategyContext::StrategyContext(const Graph& graph, const SampledBatch& batch,
                                 const StrategyConfig& config, Rng& rng)
    : graph_(graph),
      batch_(&batch),
      config_(config),
      training_(true),
      rng_(rng) {
  SKIPNODE_CHECK_MSG(
      config.kind == StrategyKind::kNone || IsSkipNode(config.kind),
      "sampled training supports only SkipNode-U/-B or none");
}

StrategyContext::StrategyContext(const Graph& graph,
                                 const StrategyConfig& config,
                                 const EvalRowPlan& plan, Rng& rng)
    : StrategyContext(graph, config, /*training=*/false, rng) {
  SKIPNODE_CHECK_MSG(config.kind != StrategyKind::kPairNorm,
                     "PairNorm's row mean reads every row: no eval row plan");
  SKIPNODE_CHECK(plan.num_rows() == graph.num_nodes());
  row_plan_ = &plan;
}

Var StrategyContext::Features(Tape& tape) const {
  if (batch_ == nullptr) return tape.BorrowConstant(graph_.features());
  return tape.Constant(GatherRows(graph_.features(), batch_->input_nodes));
}

const SampledLayer& StrategyContext::BatchLayer(int layer) const {
  SKIPNODE_CHECK(layer >= 0 &&
                 layer < static_cast<int>(batch_->layers.size()));
  return batch_->layers[static_cast<size_t>(layer)];
}

Var StrategyContext::OutputRows(Tape& tape, int layer, Var x) const {
  if (batch_ == nullptr) return x;
  std::vector<int> prefix(static_cast<size_t>(BatchLayer(layer).num_dst()));
  std::iota(prefix.begin(), prefix.end(), 0);
  return tape.GatherRows(x, std::move(prefix));
}

std::shared_ptr<const CsrMatrix> StrategyContext::LayerAdjacency(int layer) {
  if (batch_ != nullptr) return BatchLayer(layer).block;
  if (training_ && config_.kind == StrategyKind::kDropNode &&
      config_.rate > 0.0f) {
    // DropNode re-samples nodes and renormalises at every layer.
    return std::make_shared<const CsrMatrix>(DropNodeAdjacency(
        *graph_.normalized_adjacency(), config_.rate, rng_));
  }
  return shared_adjacency_;
}

std::vector<uint8_t> StrategyContext::NextSkipMask() {
  const int middle_index = middle_calls_++;
  if (batch_ != nullptr) {
    // A block built under a mask holds bare self rows for the masked dst
    // nodes, so its mask must always be applied.
    return BatchLayer(middle_index + 1).skip_mask;
  }
  if (!training_ || !IsSkipNode(config_.kind)) return {};
  const float rho = ScheduledRho(config_, middle_index);
  if (rho <= 0.0f) return {};
  if (config_.kind == StrategyKind::kSkipNodeBiased) {
    return SampleSkipMaskBiased(graph_.degree_weights(), rho, rng_);
  }
  return SampleSkipMaskUniform(graph_.num_nodes(), rho, rng_);
}

Var StrategyContext::Combine(Tape& tape, Var pre, Var conv) const {
  switch (config_.kind) {
    case StrategyKind::kSkipConnection:
      return tape.Add(conv, pre);
    case StrategyKind::kPairNorm:
      return tape.PairNorm(conv, config_.pairnorm_scale);
    default:
      return conv;
  }
}

Var StrategyContext::TransformMiddle(Tape& tape, Var pre, Var conv) {
  const std::vector<uint8_t> mask = NextSkipMask();
  if (!mask.empty()) return tape.RowSelect(mask, pre, conv);
  return Combine(tape, pre, conv);
}

std::vector<uint8_t> StrategyContext::UnreadRows(int depth) const {
  if (row_plan_ == nullptr || depth < 0) return {};
  return row_plan_->UnreadRows(depth);
}

Var StrategyContext::Propagate(Tape& tape, int layer, Var h, int depth) {
  return tape.SpMM(LayerAdjacency(layer), h, UnreadRows(depth));
}

Var StrategyContext::PropagateMiddle(Tape& tape, int layer, Var pre, Var h,
                                     int depth) {
  std::shared_ptr<const CsrMatrix> adjacency = LayerAdjacency(layer);
  std::vector<uint8_t> mask = NextSkipMask();
  if (!mask.empty()) {
    return tape.SpMMRowSelect(std::move(adjacency), h, pre, std::move(mask));
  }
  return Combine(tape, pre,
                 tape.SpMM(std::move(adjacency), h, UnreadRows(depth)));
}

Var StrategyContext::TransformBoundary(Tape& tape, Var conv) {
  if (config_.kind == StrategyKind::kPairNorm) {
    return tape.PairNorm(conv, config_.pairnorm_scale);
  }
  return conv;
}

LayerSkipMaskFn MakeSampledSkipMaskFn(const Graph& graph,
                                      const StrategyConfig& config,
                                      int num_layers, Rng& rng) {
  SKIPNODE_CHECK(num_layers >= 2);
  if (config.kind == StrategyKind::kNone) return nullptr;
  SKIPNODE_CHECK_MSG(IsSkipNode(config.kind),
                     "sampled training supports only SkipNode-U/-B or none");
  const bool biased = config.kind == StrategyKind::kSkipNodeBiased;
  return [&graph, config, num_layers, biased, &rng](
             int layer, const std::vector<int>& dst_nodes) {
    if (layer <= 0 || layer >= num_layers - 1) return std::vector<uint8_t>();
    // Middle layer l is the (l-1)-th middle combine of a forward pass.
    const float rho = ScheduledRho(config, layer - 1);
    if (rho <= 0.0f) return std::vector<uint8_t>();
    if (biased) {
      // Biased draw over the *frontier's* degree weights: gathering keeps
      // the batch draw proportional to degree among the rows that exist in
      // this batch.
      const std::vector<double>& weights = graph.degree_weights();
      std::vector<double> gathered(dst_nodes.size());
      for (size_t i = 0; i < dst_nodes.size(); ++i) {
        gathered[i] = weights[static_cast<size_t>(dst_nodes[i])];
      }
      return SampleSkipMaskBiased(gathered, rho, rng);
    }
    return SampleSkipMaskUniform(static_cast<int>(dst_nodes.size()), rho, rng);
  };
}

}  // namespace skipnode
