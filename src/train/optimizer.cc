// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/optimizer.h"

#include <cmath>

#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"

namespace skipnode {
namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

// Work units per parameter element of one Adam update: two moment
// recurrences, the bias corrections, a square root and a divide.
constexpr int64_t kAdamWorkPerElement = 16;

}  // namespace

void ZeroGrad(const std::vector<Parameter*>& parameters) {
  for (Parameter* p : parameters) p->ZeroGrad();
}

void Adam::Step(const std::vector<Parameter*>& parameters) {
  int64_t total_elements = 0;
  for (const Parameter* p : parameters) total_elements += p->value.size();
  const ScopedTimer timer("train.adam_step", /*items=*/total_elements);
  ++step_count_;
  const float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(step_count_));
  // Every constant of the per-element recurrence, precomputed once. The
  // derived fields reproduce the exact floats the historical inline loop
  // computed per element (e.g. 1.0f - beta1), so the microkernel is bitwise
  // identical to it.
  const simd::AdamConstants constants = {
      .beta1 = kBeta1,
      .one_minus_beta1 = 1.0f - kBeta1,
      .beta2 = kBeta2,
      .one_minus_beta2 = 1.0f - kBeta2,
      .bias1 = bias1,
      .bias2 = bias2,
      .learning_rate = learning_rate_,
      .epsilon = kEpsilon,
      .weight_decay = weight_decay_,
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
    // Element-parallel: the moment updates touch only element i, so each
    // thread's slice is fully independent and chunking the range cannot
    // change any result bit.
    ParallelFor(
        0, p->value.size(),
        [&](int64_t lo, int64_t hi) {
          simd::AdamStep(value + lo, grad + lo, m + lo, v + lo, hi - lo,
                         constants);
        },
        kAdamWorkPerElement);
  }
}

}  // namespace skipnode
