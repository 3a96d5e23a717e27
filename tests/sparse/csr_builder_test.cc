// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The streaming two-pass CSR builder (DESIGN §13). Contracts under test:
//   * Value mode reproduces the serial COO reference (testing/coo_matrix.h,
//     the retired CsrMatrix::FromCoo semantics) bit for bit — same row
//     pointers, column order, and summed duplicate values — at any thread
//     count (the builder's per-row merge fans out).
//   * Pattern mode collapses duplicates before weights exist, exposes the
//     final degrees, and assigns fn(r, c) per surviving entry.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "sparse/csr_builder.h"
#include "sparse/csr_matrix.h"
#include "testing/coo_matrix.h"

namespace skipnode {
namespace {

struct Coo {
  int rows = 0;
  int cols = 0;
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
};

// Random COO with skewed rows and ~10% duplicate coordinates (float-equal
// values per coordinate, like every duplicate producer in the repo).
Coo RandomCoo(int rows, int cols, uint64_t seed) {
  Coo coo;
  coo.rows = rows;
  coo.cols = cols;
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    const int degree =
        r % 13 == 0 ? 30 : static_cast<int>(rng.UniformInt(6));
    for (int k = 0; k < degree; ++k) {
      const int c = static_cast<int>(rng.UniformInt(cols));
      const float v = rng.UniformFloat(-2.0f, 2.0f);
      coo.coords.push_back({r, c});
      coo.values.push_back(v);
      if (rng.Bernoulli(0.1)) {  // duplicate the coordinate, equal value
        coo.coords.push_back({r, c});
        coo.values.push_back(v);
      }
    }
  }
  return coo;
}

CsrMatrix BuildStreaming(const Coo& coo) {
  CsrBuilder builder(coo.rows, coo.cols);
  for (const auto& [r, c] : coo.coords) builder.CountEntry(r);
  builder.FinishCounting();
  for (size_t i = 0; i < coo.coords.size(); ++i) {
    builder.AddEntry(coo.coords[i].first, coo.coords[i].second,
                     coo.values[i]);
  }
  return builder.Build();
}

void ExpectIdenticalCsr(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (int r = 0; r <= a.rows(); ++r) {
    EXPECT_EQ(a.row_offsets()[static_cast<size_t>(r)],
              b.row_offsets()[static_cast<size_t>(r)])
        << "row " << r;
  }
  for (int64_t e = 0; e < a.nnz(); ++e) {
    const size_t i = static_cast<size_t>(e);
    EXPECT_EQ(a.col_idx()[i], b.col_idx()[i]) << "entry " << e;
    EXPECT_EQ(a.values()[i], b.values()[i]) << "entry " << e;  // bitwise
  }
}

class CsrBuilderTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreadCount(0); }
};

TEST_F(CsrBuilderTest, ValueModeMatchesCooReferenceAtAllThreadCounts) {
  const Coo coo = RandomCoo(211, 97, /*seed=*/21);
  const CsrMatrix reference =
      testing::CsrFromCoo(coo.rows, coo.cols, coo.coords, coo.values);
  for (const int threads : {1, 4, 8}) {
    SetParallelThreadCount(threads);
    ExpectIdenticalCsr(reference, BuildStreaming(coo));
  }
}

TEST_F(CsrBuilderTest, DuplicatesSumInPerRowInsertionOrder) {
  // Values chosen so float addition order matters: (0.1 + 0.2) + 0.3 and
  // 0.1 + (0.3 + 0.2) differ in the last bit. Both paths must pick the same
  // (insertion) order.
  Coo coo;
  coo.rows = 2;
  coo.cols = 3;
  coo.coords = {{0, 2}, {0, 2}, {1, 0}, {0, 2}, {1, 1}};
  coo.values = {0.1f, 0.2f, 5.0f, 0.3f, -1.0f};
  const CsrMatrix reference =
      testing::CsrFromCoo(coo.rows, coo.cols, coo.coords, coo.values);
  const CsrMatrix streamed = BuildStreaming(coo);
  ExpectIdenticalCsr(reference, streamed);
  EXPECT_EQ(streamed.values()[0], (0.1f + 0.2f) + 0.3f);  // bitwise
  EXPECT_EQ(streamed.nnz(), 3);
}

TEST_F(CsrBuilderTest, RowOwnerFillMatchesSerialFillAtAllThreadCounts) {
  // The sampler's fill mode: BeginRowFill + one AddRowEntries call per row,
  // issued from parallel code with row ownership. Must be bitwise identical
  // to the serial AddEntry path at any thread count.
  const Coo coo = RandomCoo(160, 80, /*seed=*/33);
  const CsrMatrix reference = BuildStreaming(coo);
  // Group the COO stream by row, preserving per-row insertion order.
  std::vector<std::vector<int>> row_cols(static_cast<size_t>(coo.rows));
  std::vector<std::vector<float>> row_vals(static_cast<size_t>(coo.rows));
  for (size_t i = 0; i < coo.coords.size(); ++i) {
    row_cols[static_cast<size_t>(coo.coords[i].first)].push_back(
        coo.coords[i].second);
    row_vals[static_cast<size_t>(coo.coords[i].first)].push_back(
        coo.values[i]);
  }
  for (const int threads : {1, 4, 8}) {
    SetParallelThreadCount(threads);
    CsrBuilder builder(coo.rows, coo.cols);
    for (const auto& [r, c] : coo.coords) builder.CountEntry(r);
    builder.FinishCounting();
    builder.BeginRowFill();
    ParallelFor(0, coo.rows, [&](int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        builder.AddRowEntries(
            static_cast<int>(r), row_cols[static_cast<size_t>(r)].data(),
            row_vals[static_cast<size_t>(r)].data(),
            static_cast<int>(row_cols[static_cast<size_t>(r)].size()));
      }
    });
    ExpectIdenticalCsr(reference, builder.Build());
  }
}

TEST_F(CsrBuilderTest, EmptyRowsAndEmptyMatrix) {
  CsrBuilder builder(4, 4);
  builder.CountEntry(2);
  builder.FinishCounting();
  builder.AddEntry(2, 1, 7.0f);
  const CsrMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_EQ(m.RowNnz(0), 0);
  EXPECT_EQ(m.RowNnz(2), 1);

  CsrBuilder empty(3, 5);
  empty.FinishCounting();
  const CsrMatrix e = empty.Build();
  EXPECT_EQ(e.rows(), 3);
  EXPECT_EQ(e.cols(), 5);
  EXPECT_EQ(e.nnz(), 0);
}

TEST_F(CsrBuilderTest, PatternModeCollapsesDuplicatesBeforeWeights) {
  CsrBuilder builder(3, 3);
  // Row 0: {0,1} streamed three times, {0,2} once. Row 2: {2,0}.
  for (int i = 0; i < 3; ++i) builder.CountEntry(0);
  builder.CountEntry(0);
  builder.CountEntry(2);
  builder.FinishCounting();
  for (int i = 0; i < 3; ++i) builder.AddPatternEntry(0, 1);
  builder.AddPatternEntry(0, 2);
  builder.AddPatternEntry(2, 0);
  builder.FinalizePattern();

  // Degrees are post-deduplication: the weight fn sees final structure.
  EXPECT_EQ(builder.FinalRowNnz(0), 2);
  EXPECT_EQ(builder.FinalRowNnz(1), 0);
  EXPECT_EQ(builder.FinalRowNnz(2), 1);
  EXPECT_EQ(builder.final_nnz(), 3);

  const CsrMatrix m = builder.BuildWithValues(
      [](int r, int c) { return static_cast<float>(10 * r + c); });
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.col_idx()[0], 1);
  EXPECT_EQ(m.values()[0], 1.0f);   // fn(0, 1)
  EXPECT_EQ(m.values()[1], 2.0f);   // fn(0, 2)
  EXPECT_EQ(m.values()[2], 20.0f);  // fn(2, 0)
}

}  // namespace
}  // namespace skipnode
