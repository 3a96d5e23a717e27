// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The four CSR kernels (forward / masked forward / transposed backward /
// masked transposed backward) must be bitwise identical with the vectorized
// inner loops on and off (DESIGN §14), at 1/4/8 threads (DESIGN §7), and
// across odd dense widths that leave a strip tail. This is the
// cross-product the SIMD rewiring must not move.

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/simd.h"
#include "sparse/csr_matrix.h"
#include "tensor/matrix.h"
#include "testing/coo_matrix.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

// Restores thread count and the SIMD switch after each case.
class StateGuard {
 public:
  StateGuard() : simd_(simd::Enabled()) {}
  ~StateGuard() {
    SetParallelThreadCount(0);
    simd::SetEnabled(simd_);
  }

 private:
  bool simd_;
};

// Random rectangular CSR with a couple of heavy rows (skewed nnz).
CsrMatrix RandomCsr(int rows, int cols, Rng& rng) {
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
  for (int r = 0; r < rows; ++r) {
    const int degree = (r % 11 == 0) ? cols / 2 : 3;
    for (int k = 0; k < degree; ++k) {
      coords.push_back({r, static_cast<int>(rng.UniformInt(cols))});
      values.push_back(rng.UniformFloat(-1.0f, 1.0f));
    }
  }
  return testing::CsrFromCoo(rows, cols, coords, values);
}

std::vector<uint8_t> RandomMask(int n, Rng& rng) {
  std::vector<uint8_t> mask(n);
  for (auto& m : mask) m = rng.Bernoulli(0.5) ? 1 : 0;
  return mask;
}

void ExpectBitwiseEq(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) {
    uint32_t ua, ub;
    std::memcpy(&ua, a.data() + i, 4);
    std::memcpy(&ub, b.data() + i, 4);
    ASSERT_EQ(ua, ub) << what << " element " << i;
  }
}

TEST(SpmmSimdTest, AllFourKernelsBitwiseAcrossSimdThreadsAndTails) {
  const StateGuard guard;
  // Rows enough that every product exceeds the pool's grain several times,
  // so the 4- and 8-thread runs fan out (asserted below).
  const int rows = 9701, cols = 61;
  Rng data_rng(3);
  // d=19 leaves a 3-element strip tail; d=32 is strip-covered.
  for (const int d : {19, 32}) {
    Matrix x(cols, d), g(rows, d);
    for (int64_t i = 0; i < x.size(); ++i) {
      x.data()[i] = data_rng.UniformFloat(-1.0f, 1.0f);
    }
    for (int64_t i = 0; i < g.size(); ++i) {
      g.data()[i] = data_rng.UniformFloat(-1.0f, 1.0f);
    }
    Rng mask_rng(5);
    const auto row_mask = RandomMask(rows, mask_rng);

    Rng csr_rng(7);
    const CsrMatrix a = RandomCsr(rows, cols, csr_rng);

    // Reference: SIMD off, single thread.
    simd::SetEnabled(false);
    SetParallelThreadCount(1);
    const Matrix fwd = a.Multiply(x);
    Matrix fwd_masked(rows, d);
    a.MultiplyAccumulate(x, fwd_masked, row_mask);
    const Matrix bwd = a.MultiplyTransposed(g);
    const Matrix bwd_masked = a.MultiplyTransposed(g, row_mask);

    for (const bool vec : {false, true}) {
      simd::SetEnabled(vec);
      for (const int threads : {1, 4, 8}) {
        SetParallelThreadCount(threads);
        Matrix out, masked(rows, d), out_t, masked_t;
        const int64_t dispatches = testing::PoolDispatches([&] {
          out = a.Multiply(x);
          a.MultiplyAccumulate(x, masked, row_mask);
          out_t = a.MultiplyTransposed(g);
          masked_t = a.MultiplyTransposed(g, row_mask);
        });
        if (threads > 1) {
          EXPECT_GE(dispatches, 4) << "threads=" << threads;
        }
        ExpectBitwiseEq(out, fwd, "forward");
        ExpectBitwiseEq(masked, fwd_masked, "masked forward");
        ExpectBitwiseEq(out_t, bwd, "backward");
        ExpectBitwiseEq(masked_t, bwd_masked, "masked backward");
      }
    }
  }
}

}  // namespace
}  // namespace skipnode
