// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Property sweeps (TEST_P) over graph sizes and densities: the invariants of
// the normalised adjacency and its spectral structure must hold for every
// configuration, not just the hand-picked graphs of the unit tests.

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sparse/graph_ops.h"
#include "sparse/spectral.h"
#include "tensor/ops.h"

namespace skipnode {
namespace {

struct GraphConfig {
  int num_nodes;
  double edge_probability;
  uint64_t seed;
};

class NormalizedAdjacencySweep
    : public ::testing::TestWithParam<GraphConfig> {
 protected:
  NormalizedAdjacencySweep() {
    const GraphConfig& config = GetParam();
    Rng rng(config.seed);
    edges_ = ErdosRenyi(config.num_nodes, config.edge_probability, rng);
    n_ = config.num_nodes;
    a_hat_ = NormalizedAdjacency(n_, edges_);
  }

  int n_;
  EdgeList edges_;
  CsrMatrix a_hat_;
};

TEST_P(NormalizedAdjacencySweep, IsSymmetric) {
  EXPECT_TRUE(a_hat_.IsSymmetric());
}

TEST_P(NormalizedAdjacencySweep, AllValuesInUnitInterval) {
  for (const float v : a_hat_.values()) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST_P(NormalizedAdjacencySweep, SqrtDegreeVectorIsFixedPoint) {
  const std::vector<int> degree = Degrees(n_, edges_);
  Matrix v(n_, 1);
  for (int i = 0; i < n_; ++i) {
    v.at(i, 0) = std::sqrt(static_cast<float>(degree[i]) + 1.0f);
  }
  EXPECT_LT(MaxAbsDiff(a_hat_.Multiply(v), v), 1e-3f);
}

TEST_P(NormalizedAdjacencySweep, RowSumsBoundedBySqrtDegree) {
  // Each of the d_i + 1 entries in row i is at most 1/sqrt(d_i + 1), so the
  // row sum is positive and at most sqrt(d_i + 1). (Row sums CAN exceed 1
  // when a hub's neighbours have smaller degrees — only the spectral radius
  // is exactly 1.)
  const std::vector<int> degree = Degrees(n_, edges_);
  Matrix sums = a_hat_.RowSums();
  for (int i = 0; i < n_; ++i) {
    EXPECT_GT(sums.at(i, 0), 0.0f);
    EXPECT_LE(sums.at(i, 0),
              std::sqrt(static_cast<float>(degree[i]) + 1.0f) + 1e-5f);
  }
}

TEST_P(NormalizedAdjacencySweep, SpectralRadiusIsOne) {
  // Power iteration from a random start must converge to eigenvalue 1 (the
  // top of the spectrum), never above.
  Rng rng(GetParam().seed + 1);
  Matrix v = Matrix::RandomNormal(n_, 1, rng);
  v = Scale(v, 1.0f / v.Norm());
  float rayleigh = 0.0f;
  for (int it = 0; it < 100; ++it) {
    Matrix av = a_hat_.Multiply(v);
    rayleigh = RowDots(v, av).Sum();
    const float norm = av.Norm();
    ASSERT_GT(norm, 0.0f);
    v = Scale(av, 1.0f / norm);
  }
  EXPECT_LE(rayleigh, 1.0f + 1e-4f);
  EXPECT_GT(rayleigh, 0.9f);
}

TEST_P(NormalizedAdjacencySweep, LambdaBelowOneAndContraction) {
  const std::vector<int> comp = ConnectedComponents(a_hat_);
  Matrix basis = TopEigenvectors(comp, Degrees(n_, edges_));
  const float lambda = SecondLargestEigenvalueMagnitude(a_hat_, basis);
  EXPECT_GE(lambda, 0.0f);
  EXPECT_LT(lambda, 1.0f);
  // d_M(A_hat X) <= lambda d_M(X) for random X.
  Rng rng(GetParam().seed + 2);
  Matrix x = Matrix::RandomNormal(n_, 4, rng);
  const float before = DistanceToM(basis, x);
  const float after = DistanceToM(basis, a_hat_.Multiply(x));
  EXPECT_LE(after, lambda * before * 1.05f + 1e-4f);
}

TEST_P(NormalizedAdjacencySweep, DropEdgePreservesInvariants) {
  Rng rng(GetParam().seed + 3);
  CsrMatrix sampled = DropEdgeAdjacency(a_hat_, 0.4, rng);
  EXPECT_TRUE(sampled.IsSymmetric());
  EXPECT_LE(sampled.nnz(), a_hat_.nnz());
  for (const float v : sampled.values()) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeAndDensitySweep, NormalizedAdjacencySweep,
    ::testing::Values(GraphConfig{20, 0.10, 1}, GraphConfig{20, 0.50, 2},
                      GraphConfig{60, 0.05, 3}, GraphConfig{60, 0.30, 4},
                      GraphConfig{150, 0.03, 5}, GraphConfig{150, 0.15, 6}),
    [](const ::testing::TestParamInfo<GraphConfig>& info) {
      return "n" + std::to_string(info.param.num_nodes) + "_p" +
             std::to_string(
                 static_cast<int>(info.param.edge_probability * 100));
    });

}  // namespace
}  // namespace skipnode
