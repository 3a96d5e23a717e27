// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Dense row-major float matrix, the value type of the whole library. Node
// feature matrices X in R^{N x d}, weight matrices W, gradients, masks, and
// loss scalars (1x1) are all Matrix instances.

#ifndef SKIPNODE_TENSOR_MATRIX_H_
#define SKIPNODE_TENSOR_MATRIX_H_

#include <initializer_list>
#include <vector>

#include "base/aligned.h"
#include "base/check.h"
#include "base/rng.h"

namespace skipnode {

// Backing storage of every Matrix: 64-byte-aligned so vectorized kernels
// (base/simd.h) load from cache-line boundaries. Alignment is a storage
// property only — values are unchanged.
using FloatBuffer = std::vector<float, AlignedAllocator<float>>;

// Dense row-major matrix of floats. Copyable and movable; copies are deep.
class Matrix {
 public:
  // Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  // Zero-initialised rows x cols matrix.
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0.0f) {
    SKIPNODE_CHECK(rows >= 0 && cols >= 0);
  }

  // rows x cols matrix adopting the given aligned row-major storage.
  Matrix(int rows, int cols, FloatBuffer data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    SKIPNODE_CHECK(static_cast<size_t>(rows) * cols == data_.size());
  }

  // rows x cols matrix copying the given row-major contents into aligned
  // storage (loader-facing; the hot paths pass FloatBuffer).
  Matrix(int rows, int cols, const std::vector<float>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    SKIPNODE_CHECK(static_cast<size_t>(rows) * cols == data_.size());
  }

  // Braced-list literal contents (tests and small fixtures).
  Matrix(int rows, int cols, std::initializer_list<float> data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    SKIPNODE_CHECK(static_cast<size_t>(rows) * cols == data_.size());
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  float& at(int r, int c) {
    SKIPNODE_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    SKIPNODE_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  // Unchecked access for hot loops.
  float& operator()(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Sets every element to `value`.
  void Fill(float value);
  // Sets every element to zero.
  void SetZero() { Fill(0.0f); }

  // Factory helpers -------------------------------------------------------

  static Matrix Ones(int rows, int cols);
  static Matrix Identity(int n);
  // Entries ~ Uniform(lo, hi).
  static Matrix Random(int rows, int cols, Rng& rng, float lo = -1.0f,
                       float hi = 1.0f);
  // Entries ~ Normal(0, stddev).
  static Matrix RandomNormal(int rows, int cols, Rng& rng,
                             float stddev = 1.0f);
  // Glorot/Xavier uniform initialisation: U(-a, a), a = sqrt(6/(fan_in+out)).
  static Matrix GlorotUniform(int rows, int cols, Rng& rng);

  // Reductions / norms -----------------------------------------------------

  float Sum() const;
  float Mean() const;
  float AbsMax() const;
  // Frobenius norm.
  float Norm() const;
  float SquaredNorm() const;

  // Moves the backing storage out, leaving a 0x0 matrix. Only the workspace
  // pool (tensor/pool.h) should need this.
  FloatBuffer TakeStorage() && {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

 private:
  int rows_;
  int cols_;
  FloatBuffer data_;
};

}  // namespace skipnode

#endif  // SKIPNODE_TENSOR_MATRIX_H_
