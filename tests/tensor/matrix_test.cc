// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/matrix.h"

#include <cmath>
#include <utility>
#include <vector>

#include "base/aligned.h"

#include <gtest/gtest.h>

namespace skipnode {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ZeroInitialised) {
  Matrix m(3, 4);
  EXPECT_EQ(m.size(), 12);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(m.at(r, c), 0.0f);
  }
}

TEST(MatrixTest, FromDataRowMajor) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(0, 2), 3.0f);
  EXPECT_EQ(m.at(1, 0), 4.0f);
  EXPECT_EQ(m.at(1, 2), 6.0f);
}

TEST(MatrixTest, RowPointerMatchesAt) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.row(1)[2], m.at(1, 2));
}

TEST(MatrixTest, FillAndSetZero) {
  Matrix m(2, 2);
  m.Fill(3.5f);
  EXPECT_EQ(m.Sum(), 14.0f);
  m.SetZero();
  EXPECT_EQ(m.Sum(), 0.0f);
}

TEST(MatrixTest, IdentityFactory) {
  Matrix id = Matrix::Identity(3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(id.at(r, c), r == c ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, OnesFactory) {
  Matrix ones = Matrix::Ones(4, 5);
  EXPECT_EQ(ones.Sum(), 20.0f);
  EXPECT_EQ(ones.Mean(), 1.0f);
}

TEST(MatrixTest, RandomWithinBounds) {
  Rng rng(1);
  Matrix m = Matrix::Random(20, 20, rng, -0.5f, 0.5f);
  EXPECT_LE(m.AbsMax(), 0.5f);
  EXPECT_NE(m.Sum(), 0.0f);
}

TEST(MatrixTest, RandomNormalStddev) {
  Rng rng(2);
  Matrix m = Matrix::RandomNormal(100, 100, rng, 2.0f);
  const float variance = m.SquaredNorm() / static_cast<float>(m.size());
  EXPECT_NEAR(variance, 4.0f, 0.3f);
}

TEST(MatrixTest, GlorotUniformBound) {
  Rng rng(3);
  Matrix m = Matrix::GlorotUniform(30, 20, rng);
  const float bound = std::sqrt(6.0f / 50.0f);
  EXPECT_LE(m.AbsMax(), bound + 1e-6f);
}

TEST(MatrixTest, Norms) {
  Matrix m(1, 2, {3, 4});
  EXPECT_FLOAT_EQ(m.Norm(), 5.0f);
  EXPECT_FLOAT_EQ(m.SquaredNorm(), 25.0f);
  EXPECT_FLOAT_EQ(m.AbsMax(), 4.0f);
}

TEST(MatrixTest, SameShape) {
  Matrix a(2, 3), b(2, 3), c(3, 2);
  EXPECT_TRUE(a.SameShape(b));
  EXPECT_FALSE(a.SameShape(c));
}

TEST(MatrixTest, CopyIsDeep) {
  Matrix a(1, 1, {1.0f});
  Matrix b = a;
  b.at(0, 0) = 2.0f;
  EXPECT_EQ(a.at(0, 0), 1.0f);
}


TEST(MatrixTest, StorageIsCacheLineAligned) {
  // Every Matrix draws from the shared 64-byte-aligned allocator
  // (base/aligned.h) so vector loads never straddle a cache line.
  Matrix a(1, 1);
  Matrix b(7, 13);
  Matrix c(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(IsBufferAligned(a.data()));
  EXPECT_TRUE(IsBufferAligned(b.data()));
  EXPECT_TRUE(IsBufferAligned(c.data()));
  Matrix moved = std::move(b);
  EXPECT_TRUE(IsBufferAligned(moved.data()));
}

TEST(MatrixTest, CopyingVectorConstructorMatchesAdoptingOne) {
  const std::vector<float> values = {1.5f, -2.0f, 0.25f, 4.0f};
  Matrix from_vector(2, 2, values);
  Matrix from_list(2, 2, {1.5f, -2.0f, 0.25f, 4.0f});
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(from_vector.data()[i], from_list.data()[i]);
  }
  EXPECT_TRUE(IsBufferAligned(from_vector.data()));
}

}  // namespace
}  // namespace skipnode
