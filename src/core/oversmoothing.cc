// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "core/oversmoothing.h"

#include <cmath>
#include <vector>

#include "base/check.h"
#include "tensor/ops.h"

namespace skipnode {

float MeanAverageDistance(const Graph& graph, const Matrix& x) {
  SKIPNODE_CHECK(x.rows() == graph.num_nodes());
  const int n = graph.num_nodes();
  std::vector<double> distance_sum(n, 0.0);
  std::vector<int> neighbor_count(n, 0);
  ForEachEdge(*graph.normalized_adjacency(), [&](int u, int v) {
    const float cos = CosineSimilarity(x.row(u), x.row(v), x.cols());
    const double dist = 1.0 - cos;
    distance_sum[u] += dist;
    distance_sum[v] += dist;
    neighbor_count[u] += 1;
    neighbor_count[v] += 1;
  });
  double total = 0.0;
  int counted = 0;
  for (int i = 0; i < n; ++i) {
    if (neighbor_count[i] == 0) continue;
    total += distance_sum[i] / neighbor_count[i];
    ++counted;
  }
  if (counted == 0) return 0.0f;
  return static_cast<float>(total / counted);
}

float DirichletEnergy(const Graph& graph, const Matrix& x) {
  SKIPNODE_CHECK(x.rows() == graph.num_nodes());
  const std::vector<int>& degree = graph.degrees();
  double energy = 0.0;
  ForEachEdge(*graph.normalized_adjacency(), [&](int u, int v) {
    const float inv_u = 1.0f / std::sqrt(1.0f + degree[u]);
    const float inv_v = 1.0f / std::sqrt(1.0f + degree[v]);
    const float* xu = x.row(u);
    const float* xv = x.row(v);
    for (int c = 0; c < x.cols(); ++c) {
      const double diff = inv_u * xu[c] - inv_v * xv[c];
      energy += diff * diff;
    }
  });
  return static_cast<float>(0.5 * energy);
}

SubspaceAnalyzer::SubspaceAnalyzer(const Graph& graph)
    : a_hat_(graph.normalized_adjacency()),
      basis_(TopEigenvectors(graph.components(), graph.degrees())) {}

float SubspaceAnalyzer::DistanceToM(const Matrix& x) const {
  return skipnode::DistanceToM(basis_, x);
}

float SubspaceAnalyzer::Lambda() const {
  if (lambda_ < 0.0f) {
    lambda_ = SecondLargestEigenvalueMagnitude(*a_hat_, basis_);
  }
  return lambda_;
}

float Theorem2Coefficient(float s, float lambda, float rho) {
  const float sl = s * lambda;
  return sl + rho * (1.0f - sl);
}

float Theorem3Coefficient(float s, float lambda, float rho) {
  const float sl = s * lambda;
  SKIPNODE_CHECK(sl > 0.0f);
  return rho * (1.0f / sl + 1.0f) - 1.0f;
}

}  // namespace skipnode
