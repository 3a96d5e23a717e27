// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The plug-and-play training strategies the paper studies, behind one
// interface so every backbone supports all of them:
//
//   * SkipNode-U / SkipNode-B  — the contribution (core/skipnode.h),
//   * DropEdge                 — per-epoch edge sampling + renormalisation,
//   * DropNode                 — per-layer node down-sampling + renorm.,
//   * PairNorm                 — centre-and-scale normalisation after convs,
//   * SkipConnection           — residual add (ResGCN-style),
//   * None                     — vanilla backbone.
//
// A StrategyContext is created per forward pass and is the one object a
// backbone gets its inputs from:
//   1. Features(tape)         — the input rows;
//   2. LayerAdjacency(layer)  — which adjacency operator to propagate with;
//   3. Transform*/Propagate*  — the post-convolution combine (identity for
//      topology-level strategies).
// It runs over either the full graph or one sampled minibatch (DESIGN §15),
// so each backbone has a single forward for both.

#ifndef SKIPNODE_CORE_STRATEGIES_H_
#define SKIPNODE_CORE_STRATEGIES_H_

#include <memory>
#include <string>

#include "autograd/tape.h"
#include "base/rng.h"
#include "graph/graph.h"
#include "graph/sampler.h"

namespace skipnode {

enum class StrategyKind {
  kNone,
  kDropEdge,
  kDropNode,
  kPairNorm,
  kSkipConnection,
  kSkipNodeUniform,
  kSkipNodeBiased,
};

// Short display name ("SkipNode-U", "DropEdge", ...).
const char* StrategyName(StrategyKind kind);

struct StrategyConfig {
  StrategyKind kind = StrategyKind::kNone;
  // Sampling rate: rho for SkipNode, drop probability for DropEdge/DropNode.
  float rate = 0.5f;
  // PairNorm's target row scale s.
  float pairnorm_scale = 1.0f;
  // Extension (ablation/bench): per-layer rho schedule for SkipNode. The
  // effective rate at the k-th middle combine of a forward pass is
  // clamp(rate + rho_growth * k, 0, 1). The paper's Figure 5 shows deeper
  // stacks want larger rho; a positive growth lets early layers convolve
  // more while deep layers skip more. 0 reproduces the paper's constant rho.
  float rho_growth = 0.0f;

  static StrategyConfig None() { return {}; }
  static StrategyConfig SkipNodeU(float rho) {
    return {StrategyKind::kSkipNodeUniform, rho, 1.0f, 0.0f};
  }
  static StrategyConfig SkipNodeB(float rho) {
    return {StrategyKind::kSkipNodeBiased, rho, 1.0f, 0.0f};
  }
  static StrategyConfig DropEdge(float rate) {
    return {StrategyKind::kDropEdge, rate, 1.0f, 0.0f};
  }
  static StrategyConfig DropNode(float rate) {
    return {StrategyKind::kDropNode, rate, 1.0f, 0.0f};
  }
  static StrategyConfig PairNorm(float scale = 1.0f) {
    return {StrategyKind::kPairNorm, 0.0f, scale, 0.0f};
  }
  static StrategyConfig SkipConnection() {
    return {StrategyKind::kSkipConnection, 0.0f, 1.0f, 0.0f};
  }
};

// Per-forward-pass strategy state. Construct once per training step (and per
// evaluation pass); it samples whatever the strategy needs and hands
// backbones the pieces. At evaluation time every strategy except PairNorm
// and SkipConnection degenerates to the vanilla model, as in the paper.
class StrategyContext {
 public:
  // A full-graph pass. `graph` and `rng` must outlive the context. SkipNode
  // masks are drawn from `rng` at each middle combine.
  StrategyContext(const Graph& graph, const StrategyConfig& config,
                  bool training, Rng& rng);
  // A minibatch pass over `batch`'s bipartite blocks (DESIGN §15); `graph`,
  // `batch` and `rng` must outlive the context. The masks were drawn up
  // front by the sampler (MakeSampledSkipMaskFn) and ride in the batch:
  // nothing here draws from `rng`. `config` must be kNone or SkipNode.
  StrategyContext(const Graph& graph, const SampledBatch& batch,
                  const StrategyConfig& config, Rng& rng);

  // The input feature rows as a tape constant: all of them, or on a batch
  // the bottom src frontier (SampledBatch::input_nodes).
  Var Features(Tape& tape) const;

  // X^(l-1) restricted to the output rows of convolution layer `layer` —
  // the skip path of Eq. 4. On the full graph that is `x`; on a batch the
  // dst frontier is a prefix of the src frontier, so it is a prefix gather.
  Var OutputRows(Tape& tape, int layer, Var x) const;

  // Adjacency operator for convolution layer `layer` (0-based). DropEdge
  // returns one sampled-and-renormalised matrix shared by all layers of this
  // pass; DropNode resamples (and renormalises) per layer — the cost
  // difference Table 8 measures. On a batch it is batch.layers[layer].block.
  std::shared_ptr<const CsrMatrix> LayerAdjacency(int layer);

  // Post-convolution combine for a *middle* layer, where input and output
  // widths match. `pre` is the layer input X^(l-1) (post-activation of the
  // previous layer), `conv` the convolution result before the nonlinearity
  // is irrelevant here — backbones call this on their chosen tensor:
  //   SkipNode:        RowSelect(mask, pre, conv)      (Eq. 4)
  //   SkipConnection:  conv + pre
  //   PairNorm:        PairNorm(conv)
  //   others:          conv
  Var TransformMiddle(Tape& tape, Var pre, Var conv);

  // Propagate-and-combine for a middle layer whose combine input is the raw
  // convolution: equivalent to
  //   TransformMiddle(tape, pre, tape.SpMM(LayerAdjacency(layer), h))
  // but when a SkipNode mask applies it fuses the two into
  // Tape::SpMMRowSelect, so the rho-fraction of skipped rows never computes
  // its convolution (DESIGN §10). Backbones whose combine input is not the
  // raw SpMM (residual adds, GCNII/APPNP mixes, GAT attention) keep calling
  // SpMM + TransformMiddle. Bitwise identical to the unfused form at any
  // thread count, rho, and mask kind (spmm_rowselect_test), and consumes
  // the same mask.
  Var PropagateMiddle(Tape& tape, int layer, Var pre, Var h);

  // Post-convolution hook for layers whose width changed (first/last):
  // only PairNorm applies; everything else is identity.
  Var TransformBoundary(Tape& tape, Var conv);

  const StrategyConfig& config() const { return config_; }
  // The minibatch this pass runs over, or null on the full graph.
  const SampledBatch* batch() const { return batch_; }
  // Number of middle combines so far in this pass (the middle-layer index
  // used by the rho schedule).
  int middle_calls() const { return middle_calls_; }

 private:
  // The SkipNode mask for the next middle combine, or empty when no row
  // skips. Full graph: drawn from the rho schedule (uniform, or biased by
  // the graph's cached degree weights) when training. Batch: the k-th
  // middle combine takes batch.layers[k + 1].skip_mask.
  std::vector<uint8_t> NextSkipMask();
  // The mask-free part of TransformMiddle.
  Var Combine(Tape& tape, Var pre, Var conv) const;
  // batch_->layers[layer], bounds-checked.
  const SampledLayer& BatchLayer(int layer) const;

  const Graph& graph_;
  const SampledBatch* batch_ = nullptr;
  StrategyConfig config_;
  bool training_;
  Rng& rng_;
  std::shared_ptr<const CsrMatrix> shared_adjacency_;
  int middle_calls_ = 0;
};

// Builds the NeighborSampler's per-layer skip-mask callback from a strategy
// (DESIGN §15). For SkipNode the callback draws the batch's middle-layer
// masks over the dst frontier — uniform, or biased by the gathered
// degree weights — from `rng`, in the sampler's serial top-layer-first
// order; the same masks ride along in SampledLayer::skip_mask and a batch
// StrategyContext applies them, so pruning and training agree row for row.
// The rho schedule is the full-batch one: middle layer l uses
// clamp(rate + rho_growth * (l - 1), 0, 1). kNone returns a null callback
// (no pruning); any other strategy aborts — the sampled path supports only
// SkipNode and the vanilla backbone.
LayerSkipMaskFn MakeSampledSkipMaskFn(const Graph& graph,
                                      const StrategyConfig& config,
                                      int num_layers, Rng& rng);

}  // namespace skipnode

#endif  // SKIPNODE_CORE_STRATEGIES_H_
