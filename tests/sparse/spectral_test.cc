// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/spectral.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "tensor/ops.h"

namespace skipnode {
namespace {

struct SpectralFixture {
  EdgeList edges;
  std::vector<int> degrees;
  std::vector<int> components;
  CsrMatrix a_hat;
  Matrix basis;

  explicit SpectralFixture(int n, double p, uint64_t seed) {
    Rng rng(seed);
    edges = ErdosRenyi(n, p, rng);
    degrees = Degrees(n, edges);
    a_hat = NormalizedAdjacency(n, edges);
    components = ConnectedComponents(a_hat);
    basis = TopEigenvectors(components, degrees);
  }
};

TEST(SpectralTest, TopEigenvectorsAreOrthonormal) {
  SpectralFixture f(40, 0.1, 1);
  Matrix gram = MatMulTransposeA(f.basis, f.basis);
  EXPECT_LT(MaxAbsDiff(gram, Matrix::Identity(gram.rows())), 1e-4f);
}

TEST(SpectralTest, TopEigenvectorsAreFixedByAHat) {
  SpectralFixture f(40, 0.1, 2);
  // A_hat e_m = e_m for every component eigenvector.
  EXPECT_LT(MaxAbsDiff(f.a_hat.Multiply(f.basis), f.basis), 1e-4f);
}

TEST(SpectralTest, OneColumnPerComponent) {
  // Two disjoint triangles -> two components -> two basis columns.
  EdgeList edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}};
  const std::vector<int> comp =
      ConnectedComponents(NormalizedAdjacency(6, edges));
  Matrix basis = TopEigenvectors(comp, Degrees(6, edges));
  EXPECT_EQ(basis.cols(), 2);
}

TEST(SpectralTest, ProjectionIsIdempotent) {
  SpectralFixture f(30, 0.15, 3);
  Rng rng(4);
  Matrix x = Matrix::RandomNormal(30, 5, rng);
  Matrix proj = ProjectOntoM(f.basis, x);
  Matrix proj2 = ProjectOntoM(f.basis, proj);
  EXPECT_LT(MaxAbsDiff(proj, proj2), 1e-4f);
}

TEST(SpectralTest, DistanceIsZeroInsideM) {
  SpectralFixture f(30, 0.15, 5);
  Rng rng(6);
  // Any E * W is inside M = U (x) R^d.
  Matrix coeff = Matrix::RandomNormal(f.basis.cols(), 4, rng);
  Matrix inside = MatMul(f.basis, coeff);
  EXPECT_LT(DistanceToM(f.basis, inside), 1e-4f * inside.Norm() + 1e-5f);
}

TEST(SpectralTest, DistanceIsAtMostNorm) {
  SpectralFixture f(30, 0.15, 7);
  Rng rng(8);
  Matrix x = Matrix::RandomNormal(30, 3, rng);
  const float d = DistanceToM(f.basis, x);
  EXPECT_GE(d, 0.0f);
  EXPECT_LE(d, x.Norm() + 1e-4f);
}

TEST(SpectralTest, PropagationContractsDistanceByLambda) {
  // The core of Eq. (3): d_M(A_hat X) <= lambda * d_M(X).
  SpectralFixture f(50, 0.1, 9);
  const float lambda = SecondLargestEigenvalueMagnitude(f.a_hat, f.basis);
  Rng rng(10);
  for (int trial = 0; trial < 5; ++trial) {
    Matrix x = Matrix::RandomNormal(50, 6, rng);
    const float before = DistanceToM(f.basis, x);
    const float after = DistanceToM(f.basis, f.a_hat.Multiply(x));
    EXPECT_LE(after, lambda * before * 1.01f + 1e-4f);
  }
}

TEST(SpectralTest, LambdaIsStrictlyInsideUnitIntervalForConnectedGraph) {
  SpectralFixture f(40, 0.3, 11);  // Dense enough to be connected.
  const float lambda = SecondLargestEigenvalueMagnitude(f.a_hat, f.basis);
  EXPECT_GT(lambda, 0.0f);
  EXPECT_LT(lambda, 1.0f);
}

TEST(SpectralTest, LambdaMatchesDensePowerIterationOnTinyGraph) {
  // Path graph 0-1-2: compute the three eigenvalues of A_hat by hand using
  // the characteristic polynomial of the 3x3 dense matrix.
  EdgeList edges = {{0, 1}, {1, 2}};
  CsrMatrix a_hat = NormalizedAdjacency(3, edges);
  Matrix basis =
      TopEigenvectors(ConnectedComponents(a_hat), Degrees(3, edges));
  const float lambda = SecondLargestEigenvalueMagnitude(a_hat, basis);
  // Dense check: deflate and run many exact dense multiplications.
  Matrix dense = a_hat.ToDense();
  Rng rng(12);
  Matrix v = Matrix::RandomNormal(3, 1, rng);
  for (int it = 0; it < 500; ++it) {
    // Deflate the top eigenvector, multiply, normalise.
    Matrix coeff = MatMulTransposeA(basis, v);
    v = Sub(v, MatMul(basis, coeff));
    v = MatMul(dense, v);
    const float norm = v.Norm();
    ASSERT_GT(norm, 0.0f);
    v = Scale(v, 1.0f / norm);
  }
  const float rayleigh = RowDots(v, MatMul(dense, v)).Sum();
  EXPECT_NEAR(lambda, std::fabs(rayleigh), 1e-3f);
}

TEST(SpectralTest, DenserGraphHasSmallerLambda) {
  // The paper (Remark 2): larger/denser graphs have smaller lambda.
  SpectralFixture sparse(60, 0.08, 13);
  SpectralFixture dense(60, 0.5, 13);
  const float lambda_sparse =
      SecondLargestEigenvalueMagnitude(sparse.a_hat, sparse.basis);
  const float lambda_dense =
      SecondLargestEigenvalueMagnitude(dense.a_hat, dense.basis);
  EXPECT_LT(lambda_dense, lambda_sparse);
}

}  // namespace
}  // namespace skipnode
