// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Width-N microkernels for the hot inner loops (DESIGN §14). Every kernel
// exists twice:
//
//   * simd::Foo     — a stripmined loop of kLanes independent lanes plus a
//     scalar tail, which the compiler vectorizes for whatever target it
//     builds for (GemmRow spells its lanes as 16-byte vector-extension
//     values instead, which GCC keeps in registers). Lanes are independent
//     output elements, so vectorizing reorders nothing: every kernel here
//     is bitwise identical to its scalar twin.
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
void AddRef(const float* a, const float* b, float* out, int64_t n);
void MulRef(const float* a, const float* b, float* out, int64_t n);
void AxpbyRef(float alpha, const float* a, float beta, const float* b,
              float* out, int64_t n);
void ReluRef(const float* x, float* out, int64_t n);
void ReluGradInPlaceRef(const float* x, float* g, int64_t n);

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
  float weight_decay;  // coupled L2 term folded into the gradient
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

// One output row of A·B (Gemm's A·B path, and its Aᵀ·B path on gathered
// columns of A), B a k x n row-major matrix:
//   out[j] = start + a[p] * b_p[j], added over ascending p < k with
//   a[p] != 0.0f, one rounding per add,
// where start is out[j] when `accumulate` and +0 otherwise. The skip is the
// comparison with 0.0f: -0.0 is skipped and NaN is not, so a NaN or Inf in a
// row of B never reaches an output through a zero entry, and an accumulated
// -0.0 survives a row with no nonzero entry.
void GemmRowRef(const float* a, int k, const float* b, int n, bool accumulate,
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

// Adam's per-element recurrence with the L2 decay folded into the gradient.
// vsqrtps/vdivps are correctly rounded per IEEE 754, so the vector form is
// bitwise identical to the scalar one.
inline void AdamStep(float* value, const float* grad, float* m, float* v,
                     int64_t n, const AdamConstants& k) {
  if (!Enabled()) return AdamStepRef(value, grad, m, v, n, k);
  for (int64_t i = 0; i < n; ++i) {
    const float g = grad[i] + k.weight_decay * value[i];
    m[i] = k.beta1 * m[i] + k.one_minus_beta1 * g;
    v[i] = k.beta2 * v[i] + k.one_minus_beta2 * g * g;
    const float m_hat = m[i] / k.bias1;
    const float v_hat = v[i] / k.bias2;
    value[i] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
  }
}

namespace detail {

// Four float lanes in one 16-byte register (a GCC/Clang vector extension;
// SSE2 and NEON hold it natively, other targets split it into scalars).
// GCC 12 keeps eight accumulators of this type in registers across a whole
// reduction but scalarises a stripmined `float acc[32]`, and without -mavx2
// it splits and spills 32-byte vectors (DESIGN §14).
using F32x4 = float __attribute__((vector_size(16)));

inline F32x4 LoadF32x4(const float* p) {
  F32x4 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreF32x4(float* p, F32x4 v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

// Four int32 lanes, the type a comparison of two F32x4 yields (-1 where it
// holds, 0 where not).
using I32x4 = int32_t __attribute__((vector_size(16)));

// Left-pack table over a 4-bit lane mask: the ascending lanes of its set
// bits (then zeros), and how many there are.
struct LeftPackTable {
  int32_t lanes[16][4];
  int32_t count[16];
};

inline constexpr LeftPackTable kLeftPack = [] {
  LeftPackTable table{};
  for (int mask = 0; mask < 16; ++mask) {
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) table.lanes[mask][table.count[mask]++] = lane;
    }
  }
  return table;
}();

// Writes the ascending indices p < k with a[p] != 0.0f to idx (k ints of
// scratch) and returns how many there are, four entries per step without a
// branch: the lanes that compare unequal to zero (NaN does, -0.0 does not)
// form a mask, and the table's lanes for it are stored at the end of the
// list, which then grows by the mask's count. A store reaches at most index
// p + 3 < k; entries past the count are never read.
inline int CompactNonzero(const float* __restrict a, int k,
                          int* __restrict idx) {
  int count = 0;
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    I32x4 bits = (LoadF32x4(a + p) != F32x4{}) & I32x4{1, 2, 4, 8};
    bits += __builtin_shufflevector(bits, bits, 2, 3, 0, 1);
    bits += __builtin_shufflevector(bits, bits, 1, 0, 3, 2);
    const int mask = bits[0];
    I32x4 lanes;
    __builtin_memcpy(&lanes, kLeftPack.lanes[mask], sizeof(lanes));
    lanes += p;
    __builtin_memcpy(idx + count, &lanes, sizeof(lanes));
    count += kLeftPack.count[mask];
  }
  for (; p < k; ++p) {
    idx[count] = p;
    count += a[p] != 0.0f;
  }
  return count;
}

// 4 * kVecs consecutive columns of one GemmRow output: `b` and `out` point at
// the block's first column. The block lives in kVecs registers for the whole
// reduction over the `count` compacted entries and is stored once.
template <int kVecs>
inline void GemmRowBlock(const float* __restrict a, const int* __restrict idx,
                         int count, const float* __restrict b, int n,
                         bool accumulate, float* __restrict out) {
  F32x4 acc[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    acc[v] = accumulate ? LoadF32x4(out + 4 * v) : F32x4{};
  }
  for (int c = 0; c < count; ++c) {
    const int p = idx[c];
    const F32x4 ap = {a[p], a[p], a[p], a[p]};
    const float* __restrict bp = b + static_cast<int64_t>(p) * n;
    for (int v = 0; v < kVecs; ++v) acc[v] += ap * LoadF32x4(bp + 4 * v);
  }
  for (int v = 0; v < kVecs; ++v) StoreF32x4(out + 4 * v, acc[v]);
}

// The last kCols < 4 columns of one GemmRow output, one scalar accumulator
// each, summed side by side in one pass over the compacted entries.
template <int kCols>
inline void GemmRowTail(const float* __restrict a, const int* __restrict idx,
                        int count, const float* __restrict b, int n,
                        bool accumulate, float* __restrict out) {
  float acc[kCols];
  for (int t = 0; t < kCols; ++t) acc[t] = accumulate ? out[t] : 0.0f;
  for (int c = 0; c < count; ++c) {
    const int p = idx[c];
    const float* __restrict bp = b + static_cast<int64_t>(p) * n;
    for (int t = 0; t < kCols; ++t) acc[t] += a[p] * bp[t];
  }
  for (int t = 0; t < kCols; ++t) out[t] = acc[t];
}

}  // namespace detail

// GemmRowRef with the output row held in registers. The indices of the
// nonzero entries of `a` are compacted into `idx` (k ints of scratch) once,
// without a branch; then each 32/16/8/4-column block of `out` is summed in
// registers over those entries and stored once, and the last n % 4 columns
// are summed side by side in scalars. Every output adds the same products in
// the same order from the same start as the reference, so the two are
// bitwise identical; `idx` past the compacted count is never read.
inline void GemmRow(const float* __restrict a, int k,
                    const float* __restrict b, int n, bool accumulate,
                    int* __restrict idx, float* __restrict out) {
  if (!Enabled()) return GemmRowRef(a, k, b, n, accumulate, out);
  const int count = detail::CompactNonzero(a, k, idx);
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    detail::GemmRowBlock<8>(a, idx, count, b + j, n, accumulate, out + j);
  }
  if (j + 16 <= n) {
    detail::GemmRowBlock<4>(a, idx, count, b + j, n, accumulate, out + j);
    j += 16;
  }
  if (j + 8 <= n) {
    detail::GemmRowBlock<2>(a, idx, count, b + j, n, accumulate, out + j);
    j += 8;
  }
  if (j + 4 <= n) {
    detail::GemmRowBlock<1>(a, idx, count, b + j, n, accumulate, out + j);
    j += 4;
  }
  switch (n - j) {
    case 3:
      detail::GemmRowTail<3>(a, idx, count, b + j, n, accumulate, out + j);
      break;
    case 2:
      detail::GemmRowTail<2>(a, idx, count, b + j, n, accumulate, out + j);
      break;
    case 1:
      detail::GemmRowTail<1>(a, idx, count, b + j, n, accumulate, out + j);
      break;
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
