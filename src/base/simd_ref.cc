// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Scalar reference kernels: the retired inline loops, verbatim. This file is
// compiled with auto-vectorization disabled (see src/CMakeLists.txt) so the
// reference stays genuinely scalar — it is the path every simd::Foo takes
// when the SKIPNODE_SIMD kill-switch is off, the bitwise pin for the
// vectorized kernels, and the baseline the micro_kernels bench measures
// speedups against. Keep each body a plain element loop; do not "optimize".

#include "base/simd.h"

namespace skipnode::simd {

void AxpyRef(float a, const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += a * x[i];
}

void AccumulateRef(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] += x[i];
}

void SubtractRef(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] -= x[i];
}

void ScaleRef(const float* x, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

void ScaleInPlaceRef(float* x, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= s;
}

void AddRef(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void MulRef(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void AxpbyRef(float alpha, const float* a, float beta, const float* b,
              float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = alpha * a[i] + beta * b[i];
}

void ReluRef(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void ReluGradInPlaceRef(const float* x, float* g, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
}

void AdamStepRef(float* value, const float* grad, float* m, float* v,
                 int64_t n, const AdamConstants& k) {
  for (int64_t i = 0; i < n; ++i) {
    const float g = grad[i] + k.weight_decay * value[i];
    m[i] = k.beta1 * m[i] + k.one_minus_beta1 * g;
    v[i] = k.beta2 * v[i] + k.one_minus_beta2 * g * g;
    const float m_hat = m[i] / k.bias1;
    const float v_hat = v[i] / k.bias2;
    value[i] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
  }
}

void GemmRowRef(const float* a, int k, const float* b, int n, bool accumulate,
                float* out) {
  if (!accumulate) {
    for (int j = 0; j < n; ++j) out[j] = 0.0f;
  }
  for (int p = 0; p < k; ++p) {
    const float ap = a[p];
    if (ap == 0.0f) continue;
    const float* bp = b + static_cast<int64_t>(p) * n;
    for (int j = 0; j < n; ++j) out[j] += ap * bp[j];
  }
}

void GemmTbRowRef(const float* a, const float* b, int64_t ldb, int n, int k,
                  float* out) {
  for (int p = 0; p < n; ++p) {
    const float* bp = b + static_cast<int64_t>(p) * ldb;
    double dot = 0.0;
    for (int j = 0; j < k; ++j) {
      dot += static_cast<double>(a[j]) * bp[j];
    }
    out[p] += static_cast<float>(dot);
  }
}

}  // namespace skipnode::simd
