// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The DESIGN §14 contract: every vectorized microkernel is bitwise identical
// to its retained scalar reference at every length — strip-covered sizes,
// tails, and the special values (NaN, ±0) where vector instruction semantics
// classically diverge from scalar code.

#include "base/simd.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"

namespace skipnode::simd {
namespace {

// Strip-aligned, sub-strip, and straddling lengths, plus odd primes.
const int64_t kSizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 257};

std::vector<float> RandomVec(int64_t n, Rng& rng, float lo = -2.0f,
                             float hi = 2.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.UniformFloat(lo, hi);
  return v;
}

// Forces the runtime switch on for the duration of a case: with it off,
// every Foo forwards to FooRef and the pins would compare the reference with
// itself (the suite may run under SKIPNODE_SIMD=0).
class SimdOn {
 public:
  SimdOn() : saved_(Enabled()) { SetEnabled(true); }
  ~SimdOn() { SetEnabled(saved_); }

 private:
  bool saved_;
};

#define EXPECT_BITWISE_EQ(a, b, n)                                    \
  do {                                                                \
    for (int64_t bi = 0; bi < (n); ++bi) {                            \
      uint32_t ua, ub;                                                \
      std::memcpy(&ua, &(a)[bi], 4);                                  \
      std::memcpy(&ub, &(b)[bi], 4);                                  \
      ASSERT_EQ(ua, ub) << "element " << bi << " of " << (n);         \
    }                                                                 \
  } while (0)

TEST(SimdTest, AxpyMatchesRefBitwise) {
  const SimdOn simd_on;
  Rng rng(1);
  for (const int64_t n : kSizes) {
    const std::vector<float> x = RandomVec(n, rng);
    std::vector<float> out_vec = RandomVec(n, rng);
    std::vector<float> out_ref = out_vec;
    Axpy(0.37f, x.data(), out_vec.data(), n);
    AxpyRef(0.37f, x.data(), out_ref.data(), n);
    EXPECT_BITWISE_EQ(out_vec, out_ref, n);
  }
}

TEST(SimdTest, AccumulateSubtractMatchRefBitwise) {
  const SimdOn simd_on;
  Rng rng(2);
  for (const int64_t n : kSizes) {
    const std::vector<float> x = RandomVec(n, rng);
    std::vector<float> a = RandomVec(n, rng);
    std::vector<float> b = a;
    Accumulate(x.data(), a.data(), n);
    AccumulateRef(x.data(), b.data(), n);
    EXPECT_BITWISE_EQ(a, b, n);
    Subtract(x.data(), a.data(), n);
    SubtractRef(x.data(), b.data(), n);
    EXPECT_BITWISE_EQ(a, b, n);
  }
}

TEST(SimdTest, ScaleFamilyMatchesRefBitwise) {
  const SimdOn simd_on;
  Rng rng(3);
  for (const int64_t n : kSizes) {
    const std::vector<float> x = RandomVec(n, rng);
    std::vector<float> out_vec(static_cast<size_t>(n));
    std::vector<float> out_ref(static_cast<size_t>(n));
    Scale(x.data(), -1.7f, out_vec.data(), n);
    ScaleRef(x.data(), -1.7f, out_ref.data(), n);
    EXPECT_BITWISE_EQ(out_vec, out_ref, n);

    std::vector<float> in_vec = x;
    std::vector<float> in_ref = x;
    ScaleInPlace(in_vec.data(), 0.3f, n);
    ScaleInPlaceRef(in_ref.data(), 0.3f, n);
    EXPECT_BITWISE_EQ(in_vec, in_ref, n);
    AddScalarInPlace(in_vec.data(), -0.9f, n);
    AddScalarInPlaceRef(in_ref.data(), -0.9f, n);
    EXPECT_BITWISE_EQ(in_vec, in_ref, n);
  }
}

TEST(SimdTest, AddMulAxpbyMatchRefBitwise) {
  const SimdOn simd_on;
  Rng rng(4);
  for (const int64_t n : kSizes) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    std::vector<float> out_vec(static_cast<size_t>(n));
    std::vector<float> out_ref(static_cast<size_t>(n));
    Add(a.data(), b.data(), out_vec.data(), n);
    AddRef(a.data(), b.data(), out_ref.data(), n);
    EXPECT_BITWISE_EQ(out_vec, out_ref, n);
    Mul(a.data(), b.data(), out_vec.data(), n);
    MulRef(a.data(), b.data(), out_ref.data(), n);
    EXPECT_BITWISE_EQ(out_vec, out_ref, n);
    Axpby(0.6f, a.data(), -1.25f, b.data(), out_vec.data(), n);
    AxpbyRef(0.6f, a.data(), -1.25f, b.data(), out_ref.data(), n);
    EXPECT_BITWISE_EQ(out_vec, out_ref, n);
  }
}

TEST(SimdTest, ReluMatchesRefOnSpecialValues) {
  const SimdOn simd_on;
  // NaN propagation and the sign of zero are exactly where vector max
  // semantics differ across ISAs; the kernels must match the scalar
  // (x < 0) ? 0 : x form bit for bit on them.
  const float nan = std::nanf("");
  std::vector<float> x = {-1.0f, 0.0f, -0.0f, 2.5f, nan, -nan, 1e-38f,
                          -3.0f, 4.0f};
  for (const int64_t n : kSizes) {
    while (static_cast<int64_t>(x.size()) < n) x.push_back(x[x.size() % 9]);
    std::vector<float> out_vec(static_cast<size_t>(n));
    std::vector<float> out_ref(static_cast<size_t>(n));
    Relu(x.data(), out_vec.data(), n);
    ReluRef(x.data(), out_ref.data(), n);
    EXPECT_BITWISE_EQ(out_vec, out_ref, n);

    std::vector<float> g_vec(static_cast<size_t>(n), 0.5f);
    std::vector<float> g_ref = g_vec;
    ReluGradInPlace(x.data(), g_vec.data(), n);
    ReluGradInPlaceRef(x.data(), g_ref.data(), n);
    EXPECT_BITWISE_EQ(g_vec, g_ref, n);
  }
}

TEST(SimdTest, SgdStepMatchesRefBitwise) {
  const SimdOn simd_on;
  Rng rng(5);
  for (const int64_t n : kSizes) {
    const std::vector<float> grad = RandomVec(n, rng);
    std::vector<float> v_vec = RandomVec(n, rng);
    std::vector<float> v_ref = v_vec;
    SgdStep(v_vec.data(), grad.data(), n, 0.05f, 5e-4f);
    SgdStepRef(v_ref.data(), grad.data(), n, 0.05f, 5e-4f);
    EXPECT_BITWISE_EQ(v_vec, v_ref, n);
  }
}

AdamConstants MakeAdamConstants(bool decoupled) {
  const float beta1 = 0.9f, beta2 = 0.999f, lr = 0.01f, wd = 5e-4f;
  return {.beta1 = beta1,
          .one_minus_beta1 = 1.0f - beta1,
          .beta2 = beta2,
          .one_minus_beta2 = 1.0f - beta2,
          .bias1 = 1.0f - std::pow(beta1, 3.0f),
          .bias2 = 1.0f - std::pow(beta2, 3.0f),
          .learning_rate = lr,
          .epsilon = 1e-8f,
          .weight_decay = wd,
          .lr_weight_decay = lr * wd,
          .decoupled = decoupled};
}

TEST(SimdTest, AdamStepMatchesRefBitwiseCoupledAndDecoupled) {
  const SimdOn simd_on;
  Rng rng(6);
  for (const bool decoupled : {false, true}) {
    const AdamConstants k = MakeAdamConstants(decoupled);
    for (const int64_t n : kSizes) {
      // Include exact zeros and negatives: the decoupled branch's
      // grad + 0.0f is where a careless fold would flip the sign of zero.
      std::vector<float> grad = RandomVec(n, rng);
      std::vector<float> value = RandomVec(n, rng);
      if (n >= 3) {
        grad[0] = 0.0f;
        grad[1] = -0.0f;
        value[2] = -0.0f;
      }
      std::vector<float> v_vec = value, v_ref = value;
      std::vector<float> m_vec = RandomVec(n, rng, -0.1f, 0.1f);
      std::vector<float> m_ref = m_vec;
      std::vector<float> s_vec = RandomVec(n, rng, 0.0f, 0.1f);
      std::vector<float> s_ref = s_vec;
      AdamStep(v_vec.data(), grad.data(), m_vec.data(), s_vec.data(), n, k);
      AdamStepRef(v_ref.data(), grad.data(), m_ref.data(), s_ref.data(), n,
                  k);
      EXPECT_BITWISE_EQ(v_vec, v_ref, n);
      EXPECT_BITWISE_EQ(m_vec, m_ref, n);
      EXPECT_BITWISE_EQ(s_vec, s_ref, n);
    }
  }
}

// One row of the exact A·Bᵀ: the packed, lane-per-output kernel against the
// retired per-output dot product, over k values below, at and past a strip,
// output counts that leave a panel tail, a strided B, and special values in
// both operands. NaN appears with one sign only: which payload survives
// NaN + NaN is left open by IEEE 754 and by the compiler's operand order.
TEST(SimdTest, GemmTbRowMatchesRefBitwise) {
  const SimdOn simd_on;
  Rng rng(7);
  const float specials[] = {0.0f, -0.0f, 1e-40f, -3e-42f, 1e-30f};
  const float nan = std::nanf("");
  for (const int k : {0, 1, 7, 8, 33}) {
    for (const int n : {1, 3, 8, 9, 13, 16, 21}) {
      const int ldb = k + 3;
      std::vector<float> b = RandomVec(static_cast<int64_t>(n) * ldb, rng);
      for (size_t e = 1; e < b.size(); e += 4) b[e] = specials[e % 5];
      // Output 2's row of B carries a NaN: only that output goes NaN.
      if (n > 2 && k > 0) b[static_cast<size_t>(2 * ldb + k - 1)] = nan;
      std::vector<double> panels(
          static_cast<size_t>(GemmTbPanelsSize(n, k)));
      PackGemmTbPanels(b.data(), ldb, n, k, panels.data());
      // A random row with specials, an all-signed-zero row (every output is
      // a sum of zeros), a denormal row, and a row with a NaN.
      std::vector<std::vector<float>> rows = {RandomVec(k, rng),
                                              std::vector<float>(k, -0.0f),
                                              std::vector<float>(k, 1e-41f),
                                              RandomVec(k, rng)};
      for (int j = 0; j < k; j += 3) rows[0][j] = specials[j % 5];
      if (k > 0) rows[3][k / 2] = nan;
      for (const std::vector<float>& a : rows) {
        std::vector<float> out_vec = RandomVec(n, rng);
        out_vec[0] = -0.0f;
        std::vector<float> out_ref = out_vec;
        GemmTbRow(a.data(), b.data(), ldb, panels.data(), n, k,
                  out_vec.data());
        GemmTbRowRef(a.data(), b.data(), ldb, n, k, out_ref.data());
        EXPECT_BITWISE_EQ(out_vec, out_ref, n);
      }
    }
  }
}

TEST(SimdTest, ParseEnabledEnvAcceptsOnOffAndDefaultsOn) {
  EXPECT_TRUE(ParseEnabledEnv(nullptr));
  EXPECT_TRUE(ParseEnabledEnv("1"));
  EXPECT_FALSE(ParseEnabledEnv("0"));
}

TEST(SimdDeathTest, ParseEnabledEnvRejectsUnknownValues) {
  EXPECT_DEATH(ParseEnabledEnv("yes"), "SKIPNODE_SIMD");
  EXPECT_DEATH(ParseEnabledEnv("2"), "SKIPNODE_SIMD");
  EXPECT_DEATH(ParseEnabledEnv(""), "SKIPNODE_SIMD");
}

TEST(SimdTest, SetEnabledOverridesRuntimeSwitch) {
  const bool saved = Enabled();
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
  SetEnabled(saved);
}

TEST(SimdTest, CompiledModeNamesAKnownFlavour) {
  // One flavour remains: the stripmined loops in base/simd.h.
  EXPECT_STREQ(CompiledMode(), "portable");
}

}  // namespace
}  // namespace skipnode::simd
