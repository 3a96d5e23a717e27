// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>

namespace skipnode {

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::Ones(int rows, int cols) {
  Matrix m(rows, cols);
  m.Fill(1.0f);
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::Random(int rows, int cols, Rng& rng, float lo, float hi) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.UniformFloat(lo, hi);
  }
  return m;
}

Matrix Matrix::RandomNormal(int rows, int cols, Rng& rng, float stddev) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal()) * stddev;
  }
  return m;
}

Matrix Matrix::GlorotUniform(int rows, int cols, Rng& rng) {
  const float a = std::sqrt(6.0f / static_cast<float>(rows + cols));
  return Random(rows, cols, rng, -a, a);
}

float Matrix::Sum() const {
  double total = 0.0;
  for (const float v : data_) total += v;
  return static_cast<float>(total);
}

float Matrix::Mean() const {
  SKIPNODE_CHECK(size() > 0);
  return Sum() / static_cast<float>(size());
}

float Matrix::AbsMax() const {
  float best = 0.0f;
  for (const float v : data_) best = std::max(best, std::fabs(v));
  return best;
}

float Matrix::SquaredNorm() const {
  double total = 0.0;
  for (const float v : data_) total += static_cast<double>(v) * v;
  return static_cast<float>(total);
}

float Matrix::Norm() const { return std::sqrt(SquaredNorm()); }

}  // namespace skipnode
