// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The streaming two-pass CSR builder (DESIGN §13). Contracts under test:
//   * Value mode reproduces a plain-loop reference that shares no code with
//     the builder (ReferenceCsr below: per row, a stable sort by column over
//     insertion order, then left-to-right float sums of duplicates) bit for
//     bit — same row pointers, column order, and summed duplicate values —
//     at 1, 4 and 8 threads, on inputs large enough that the builder's
//     per-row merge and compaction fan out.
//   * Pattern mode collapses duplicates before weights exist, exposes the
//     final degrees, and assigns fn(r, c) per surviving entry.

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "sparse/csr_builder.h"
#include "sparse/csr_matrix.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

struct Coo {
  int rows = 0;
  int cols = 0;
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
};

// Random COO with skewed rows where ~10% of the coordinates come three
// times, each with its own value: three addends sum to different bits in
// different orders, so a merge that left insertion order shows.
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
      if (rng.Bernoulli(0.1)) {
        for (int copy = 0; copy < 2; ++copy) {
          coo.coords.push_back({r, c});
          coo.values.push_back(rng.UniformFloat(-2.0f, 2.0f));
        }
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

// The builder's value-mode contract in plain loops: per row, the entries in
// insertion order, stably insertion-sorted by column, then duplicates summed
// left to right.
struct PlainCsr {
  std::vector<int64_t> row_offsets;
  std::vector<int> col_idx;
  std::vector<float> values;
};

PlainCsr ReferenceCsr(const Coo& coo) {
  std::vector<std::vector<std::pair<int, float>>> rows(
      static_cast<size_t>(coo.rows));
  for (size_t i = 0; i < coo.coords.size(); ++i) {
    rows[static_cast<size_t>(coo.coords[i].first)].push_back(
        {coo.coords[i].second, coo.values[i]});
  }
  PlainCsr out;
  out.row_offsets.push_back(0);
  for (std::vector<std::pair<int, float>>& row : rows) {
    for (size_t i = 1; i < row.size(); ++i) {
      const std::pair<int, float> entry = row[i];
      size_t j = i;
      for (; j > 0 && row[j - 1].first > entry.first; --j) row[j] = row[j - 1];
      row[j] = entry;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0 && row[i].first == row[i - 1].first) {
        out.values.back() += row[i].second;
      } else {
        out.col_idx.push_back(row[i].first);
        out.values.push_back(row[i].second);
      }
    }
    out.row_offsets.push_back(static_cast<int64_t>(out.col_idx.size()));
  }
  return out;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void ExpectIdenticalCsr(const PlainCsr& reference, const CsrMatrix& m) {
  ASSERT_EQ(static_cast<int64_t>(reference.row_offsets.size()),
            int64_t{m.rows()} + 1);
  EXPECT_TRUE(SameBytes(reference.row_offsets, m.row_offsets()));
  EXPECT_TRUE(SameBytes(reference.col_idx, m.col_idx()));
  EXPECT_TRUE(SameBytes(reference.values, m.values()));  // bitwise
}

// Rows enough that the per-row merge and the compaction both exceed the
// pool's grain and fan out (about 5 entries per row).
constexpr int kLargeRows = 120000;

class CsrBuilderTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreadCount(0); }
};

TEST_F(CsrBuilderTest, ValueModeMatchesCooReferenceAtAllThreadCounts) {
  const Coo coo = RandomCoo(kLargeRows, 50000, /*seed=*/21);
  const PlainCsr reference = ReferenceCsr(coo);
  for (const int threads : {1, 4, 8}) {
    SetParallelThreadCount(threads);
    CsrMatrix built;
    const int64_t dispatches =
        testing::PoolDispatches([&] { built = BuildStreaming(coo); });
    ExpectIdenticalCsr(reference, built);
    if (threads > 1) {
      EXPECT_GT(dispatches, 0) << "threads=" << threads;
    }
  }
}

TEST_F(CsrBuilderTest, DuplicatesSumInPerRowInsertionOrder) {
  // Values chosen so float addition order matters: (1 + 1e8) - 1e8 is 0,
  // 1 + (1e8 - 1e8) is 1. Both paths must pick the same (insertion) order.
  Coo coo;
  coo.rows = 2;
  coo.cols = 3;
  coo.coords = {{0, 2}, {0, 2}, {1, 0}, {0, 2}, {1, 1}};
  coo.values = {1.0f, 1e8f, 5.0f, -1e8f, -1.0f};
  const CsrMatrix streamed = BuildStreaming(coo);
  ExpectIdenticalCsr(ReferenceCsr(coo), streamed);
  EXPECT_EQ(streamed.values()[0], 0.0f);
  EXPECT_EQ(streamed.nnz(), 3);
}

TEST_F(CsrBuilderTest, RowOwnerFillMatchesSerialFillAtAllThreadCounts) {
  // The sampler's fill mode: BeginRowFill + one AddRowEntries call per row,
  // issued from parallel code with row ownership. Must be bitwise identical
  // to the serial AddEntry path at any thread count.
  const Coo coo = RandomCoo(kLargeRows, 50000, /*seed=*/33);
  const PlainCsr reference = ReferenceCsr(coo);
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
    CsrMatrix built;
    const int64_t dispatches = testing::PoolDispatches([&] {
      CsrBuilder builder(coo.rows, coo.cols);
      for (const auto& [r, c] : coo.coords) builder.CountEntry(r);
      builder.FinishCounting();
      builder.BeginRowFill();
      // Declares a grain per row, so the fill fans out whenever the merge
      // would.
      ParallelFor(
          0, coo.rows,
          [&](int64_t begin, int64_t end) {
            for (int64_t r = begin; r < end; ++r) {
              builder.AddRowEntries(
                  static_cast<int>(r), row_cols[static_cast<size_t>(r)].data(),
                  row_vals[static_cast<size_t>(r)].data(),
                  static_cast<int>(row_cols[static_cast<size_t>(r)].size()));
            }
          },
          kMinWorkPerChunk);
      built = builder.Build();
    });
    ExpectIdenticalCsr(reference, built);
    if (threads > 1) {
      EXPECT_GT(dispatches, 0) << "threads=" << threads;
    }
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
