// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Width-N microkernels for the hot inner loops (DESIGN §14). Every kernel
// exists twice:
//
//   * simd::Foo     — a stripmined loop of kLanes independent lanes plus a
//     scalar tail, which the compiler vectorizes for whatever target it
//     builds for. Lanes are independent output elements, so vectorizing
//     reorders nothing: every kernel here is bitwise identical to its
//     scalar twin.
//   * simd::FooRef  — the retained scalar reference (simd_ref.cc, compiled
//     with auto-vectorization disabled). This is the retired inline loop,
//     kept callable so tests pin Foo == FooRef bitwise and benches measure
//     the speedup against a genuinely scalar baseline.
//
// Foo is also the one dispatch point of the runtime kill-switch: when
// Enabled() is false it calls FooRef itself, so call sites never branch.
// The switch (SKIPNODE_SIMD env: unset/"1" on, "0" scalar reference,
// anything else aborts) exists so one binary can A/B the two paths and
// tools/check_simd.sh can prove them bitwise interchangeable.
//
// No kernel may use an FMA contraction: fusing skips the intermediate
// rounding and breaks Foo == FooRef. The build forces -ffp-contract=off.

#ifndef SKIPNODE_BASE_SIMD_H_
#define SKIPNODE_BASE_SIMD_H_

#include <cmath>
#include <cstdint>

namespace skipnode::simd {

// Stripmine width. Wide enough to fill an AVX2 register; SSE2 and NEON
// targets vectorize the same kLanes-trip inner loop as two native vectors.
inline constexpr int kLanes = 8;

// --- Runtime dispatch -------------------------------------------------------

namespace detail {
// The kill-switch state every kernel reads. A plain bool, not an atomic: the
// check is one byte compare and a predictable branch per call, which matters
// because Axpy runs once per stored nonzero in the SpMM kernels. Initialised
// from SKIPNODE_SIMD during static initialisation and written only by
// SetEnabled between kernel calls; the thread pool's task hand-off orders
// that write before workers read it.
extern bool enabled;
}  // namespace detail

// Whether the kernels take their vectorized bodies.
inline bool Enabled() { return detail::enabled; }
// Overrides the runtime switch (tests, the micro_kernels A/B sweep). Call it
// only while no kernel is running.
void SetEnabled(bool enabled);
// Parses a SKIPNODE_SIMD value: nullptr/"1" -> true, "0" -> false, anything
// else aborts with a clear message. Shared with bench::BenchConfig::FromEnv
// so the bench harness rejects bad values instead of silently defaulting.
bool ParseEnabledEnv(const char* value);
// The compiled kernel flavour, for run banners. Always "portable".
const char* CompiledMode();

// --- Scalar reference kernels (simd_ref.cc, never auto-vectorized) ---------

void AxpyRef(float a, const float* x, float* out, int64_t n);
void AccumulateRef(const float* x, float* out, int64_t n);
void SubtractRef(const float* x, float* out, int64_t n);
void ScaleRef(const float* x, float s, float* out, int64_t n);
void ScaleInPlaceRef(float* x, float s, int64_t n);
void AddScalarInPlaceRef(float* x, float b, int64_t n);
void AddRef(const float* a, const float* b, float* out, int64_t n);
void MulRef(const float* a, const float* b, float* out, int64_t n);
void AxpbyRef(float alpha, const float* a, float beta, const float* b,
              float* out, int64_t n);
void ReluRef(const float* x, float* out, int64_t n);
void ReluGradInPlaceRef(const float* x, float* g, int64_t n);
void SgdStepRef(float* value, const float* grad, int64_t n,
                float learning_rate, float weight_decay);

// Constants of one Adam step, precomputed outside the element loop. Every
// field is derived so the per-element arithmetic matches the historical
// inline expressions bit for bit (e.g. one_minus_beta1 == 1.0f - beta1, the
// exact float the old loop recomputed each iteration).
struct AdamConstants {
  float beta1;
  float one_minus_beta1;
  float beta2;
  float one_minus_beta2;
  float bias1;  // 1 - beta1^t
  float bias2;  // 1 - beta2^t
  float learning_rate;
  float epsilon;
  float weight_decay;     // coupled L2 term folded into the gradient
  float lr_weight_decay;  // decoupled (AdamW) shrink factor: lr * wd
  bool decoupled;
};

void AdamStepRef(float* value, const float* grad, float* m, float* v,
                 int64_t n, const AdamConstants& k);

// One output row of A·Bᵀ (Gemm's transpose_b path), B an n x k row-major
// matrix with row stride ldb:
//   out[p] += float(sum over ascending j < k of double(a[j]) * double(b_p[j]))
// for every p < n. A float x float product is exact in double, so each
// output's bits are fixed by its own ascending-j sum alone.
void GemmTbRowRef(const float* a, const float* b, int64_t ldb, int n, int k,
                  float* out);

// The layout GemmTbRow reads B in: ceil(n / kLanes) panels of k x kLanes
// doubles, panel q holding rows [q * kLanes, q * kLanes + kLanes) of B
// transposed (element (j, l) = B[q * kLanes + l][j]), zero past row n.
// GemmTbPanelsSize is the element count; pack once per B, then serve every
// row of A from it.
int64_t GemmTbPanelsSize(int n, int k);
void PackGemmTbPanels(const float* b, int64_t ldb, int n, int k,
                      double* panels);

// --- Kernels ----------------------------------------------------------------
// Each is the Ref loop stripmined into kLanes independent lanes — same
// per-element expression, so bitwise identical — with a scalar tail for
// n % kLanes.

inline void Axpy(float a, const float* __restrict x, float* __restrict out,
                 int64_t n) {
  if (!Enabled()) return AxpyRef(a, x, out, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] += a * x[i + l];
  }
  for (; i < n; ++i) out[i] += a * x[i];
}

inline void Accumulate(const float* __restrict x, float* __restrict out,
                       int64_t n) {
  if (!Enabled()) return AccumulateRef(x, out, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] += x[i + l];
  }
  for (; i < n; ++i) out[i] += x[i];
}

inline void Subtract(const float* __restrict x, float* __restrict out,
                     int64_t n) {
  if (!Enabled()) return SubtractRef(x, out, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] -= x[i + l];
  }
  for (; i < n; ++i) out[i] -= x[i];
}

inline void Scale(const float* __restrict x, float s, float* __restrict out,
                  int64_t n) {
  if (!Enabled()) return ScaleRef(x, s, out, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] = x[i + l] * s;
  }
  for (; i < n; ++i) out[i] = x[i] * s;
}

inline void ScaleInPlace(float* x, float s, int64_t n) {
  if (!Enabled()) return ScaleInPlaceRef(x, s, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) x[i + l] *= s;
  }
  for (; i < n; ++i) x[i] *= s;
}

inline void AddScalarInPlace(float* x, float b, int64_t n) {
  if (!Enabled()) return AddScalarInPlaceRef(x, b, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) x[i + l] += b;
  }
  for (; i < n; ++i) x[i] += b;
}

inline void Add(const float* __restrict a, const float* __restrict b,
                float* __restrict out, int64_t n) {
  if (!Enabled()) return AddRef(a, b, out, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] = a[i + l] + b[i + l];
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

inline void Mul(const float* __restrict a, const float* __restrict b,
                float* __restrict out, int64_t n) {
  if (!Enabled()) return MulRef(a, b, out, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) out[i + l] = a[i + l] * b[i + l];
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

inline void Axpby(float alpha, const float* __restrict a, float beta,
                  const float* __restrict b, float* __restrict out,
                  int64_t n) {
  if (!Enabled()) return AxpbyRef(alpha, a, beta, b, out, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      out[i + l] = alpha * a[i + l] + beta * b[i + l];
    }
  }
  for (; i < n; ++i) out[i] = alpha * a[i] + beta * b[i];
}

inline void Relu(const float* __restrict x, float* __restrict out,
                 int64_t n) {
  if (!Enabled()) return ReluRef(x, out, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      out[i + l] = x[i + l] < 0.0f ? 0.0f : x[i + l];
    }
  }
  for (; i < n; ++i) out[i] = x[i] < 0.0f ? 0.0f : x[i];
}

inline void ReluGradInPlace(const float* x, float* g, int64_t n) {
  if (!Enabled()) return ReluGradInPlaceRef(x, g, n);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      g[i + l] = x[i + l] <= 0.0f ? 0.0f : g[i + l];
    }
  }
  for (; i < n; ++i) g[i] = x[i] <= 0.0f ? 0.0f : g[i];
}

inline void SgdStep(float* value, const float* grad, int64_t n,
                    float learning_rate, float weight_decay) {
  if (!Enabled()) {
    return SgdStepRef(value, grad, n, learning_rate, weight_decay);
  }
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      value[i + l] -=
          learning_rate * (grad[i + l] + weight_decay * value[i + l]);
    }
  }
  for (; i < n; ++i) {
    value[i] -= learning_rate * (grad[i] + weight_decay * value[i]);
  }
}

// Hoisting the coupled/decoupled branch gives the compiler two straight-line
// loops it can vectorize (vsqrtps/vdivps are correctly rounded per IEEE 754,
// so the vector forms are bitwise identical to the scalar ones).
inline void AdamStep(float* value, const float* grad, float* m, float* v,
                     int64_t n, const AdamConstants& k) {
  if (!Enabled()) return AdamStepRef(value, grad, m, v, n, k);
  if (!k.decoupled) {
    for (int64_t i = 0; i < n; ++i) {
      const float g = grad[i] + k.weight_decay * value[i];
      m[i] = k.beta1 * m[i] + k.one_minus_beta1 * g;
      v[i] = k.beta2 * v[i] + k.one_minus_beta2 * g * g;
      const float m_hat = m[i] / k.bias1;
      const float v_hat = v[i] / k.bias2;
      value[i] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      const float g = grad[i] + 0.0f;
      m[i] = k.beta1 * m[i] + k.one_minus_beta1 * g;
      v[i] = k.beta2 * v[i] + k.one_minus_beta2 * g * g;
      const float m_hat = m[i] / k.bias1;
      const float v_hat = v[i] / k.bias2;
      value[i] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
      value[i] -= k.lr_weight_decay * value[i];
    }
  }
}

// GemmTbRowRef vectorized across outputs: each pass computes kLanes outputs
// from one panel, lane l owning output p + l and its ascending-j sum, so the
// lanes reorder nothing (DESIGN §14). The zero-padded lanes of the last panel
// are computed and dropped. `b` is read only by the reference path.
inline void GemmTbRow(const float* __restrict a, const float* b, int64_t ldb,
                      const double* __restrict panels, int n, int k,
                      float* __restrict out) {
  if (!Enabled()) return GemmTbRowRef(a, b, ldb, n, k, out);
  for (int p = 0; p < n; p += kLanes) {
    const double* __restrict panel = panels + static_cast<int64_t>(p) * k;
    double acc[kLanes] = {};
    for (int j = 0; j < k; ++j, panel += kLanes) {
      const double aj = a[j];
      for (int l = 0; l < kLanes; ++l) acc[l] += aj * panel[l];
    }
    const int lanes = n - p < kLanes ? n - p : kLanes;
    for (int l = 0; l < lanes; ++l) out[p + l] += static_cast<float>(acc[l]);
  }
}

}  // namespace skipnode::simd

#endif  // SKIPNODE_BASE_SIMD_H_
