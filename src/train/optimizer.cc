// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/optimizer.h"

#include <cmath>

#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"

namespace skipnode {
namespace {

// Parameter matrices are a few thousand elements; only fan out when the
// per-thread slice carries enough work to hide the pool wake-up.
constexpr int64_t kMinUpdateElementsPerThread = 1 << 13;

}  // namespace

void Optimizer::ZeroGrad(const std::vector<Parameter*>& parameters) {
  for (Parameter* p : parameters) p->ZeroGrad();
}

void Sgd::Step(const std::vector<Parameter*>& parameters) {
  int64_t total_elements = 0;
  for (const Parameter* p : parameters) total_elements += p->value.size();
  const ScopedTimer timer("train.sgd_step", /*items=*/total_elements);
  for (Parameter* p : parameters) {
    float* value = p->value.data();
    const float* grad = p->grad.data();
    // Element-parallel: every weight updates independently, so chunking the
    // range cannot change any result bit.
    ParallelFor(
        0, p->value.size(),
        [&](int64_t lo, int64_t hi) {
          simd::SgdStep(value + lo, grad + lo, hi - lo, learning_rate_,
                        weight_decay_);
        },
        kMinUpdateElementsPerThread);
  }
}

void Adam::Step(const std::vector<Parameter*>& parameters) {
  int64_t total_elements = 0;
  for (const Parameter* p : parameters) total_elements += p->value.size();
  const ScopedTimer timer("train.adam_step", /*items=*/total_elements);
  ++step_count_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  // Every constant of the per-element recurrence, precomputed once. The
  // derived fields reproduce the exact floats the historical inline loop
  // computed per element (e.g. 1.0f - beta1_), so the microkernel is bitwise
  // identical to it. Coupled (classic L2) folds decay into the gradient;
  // decoupled (AdamW) shrinks the weights after the update.
  const simd::AdamConstants constants = {
      .beta1 = beta1_,
      .one_minus_beta1 = 1.0f - beta1_,
      .beta2 = beta2_,
      .one_minus_beta2 = 1.0f - beta2_,
      .bias1 = bias1,
      .bias2 = bias2,
      .learning_rate = learning_rate_,
      .epsilon = epsilon_,
      .weight_decay = weight_decay_,
      .lr_weight_decay = learning_rate_ * weight_decay_,
      .decoupled = decoupled_,
  };
  for (Parameter* p : parameters) {
    Moments& moments = moments_[p];
    if (moments.m.empty()) {
      moments.m = Matrix(p->value.rows(), p->value.cols());
      moments.v = Matrix(p->value.rows(), p->value.cols());
    }
    float* value = p->value.data();
    const float* grad = p->grad.data();
    float* m = moments.m.data();
    float* v = moments.v.data();
    // Element-parallel (see Sgd::Step); the moment updates touch only
    // element i, so each thread's slice is fully independent.
    ParallelFor(
        0, p->value.size(),
        [&](int64_t lo, int64_t hi) {
          simd::AdamStep(value + lo, grad + lo, m + lo, v + lo, hi - lo,
                         constants);
        },
        kMinUpdateElementsPerThread);
  }
}

}  // namespace skipnode
