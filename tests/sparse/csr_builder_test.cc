// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The streaming two-pass CSR builder (DESIGN §13). Contracts under test:
//   * Row fill from parallel code (rows with distinct columns, in any order)
//     reproduces a plain reference that shares no code with the builder
//     (testing::ReferenceCsr: each row stably sorted by column) bit for bit —
//     same row pointers, column order and values — at 1, 4 and 8 threads, on
//     inputs large enough that the builder's per-row sort fans out. A column
//     repeated within a row aborts.
//   * Pattern mode collapses repeated coordinates before weights exist,
//     exposes the final row counts, and assigns fn(r, c) per entry.
//   * Each build records one `sparse.csr_build` whose items are the entries
//     streamed in, before any collapse: e2ebench derives
//     `graph.pruned_edge_share` from those items.

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/telemetry.h"
#include "sparse/csr_builder.h"
#include "sparse/csr_matrix.h"
#include "testing/coo_matrix.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

struct Coo {
  int rows = 0;
  int cols = 0;
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
};

// Random rows with skewed lengths, each holding distinct columns in draw
// (unsorted) order.
Coo RandomDistinctRows(int rows, int cols, uint64_t seed) {
  Coo coo;
  coo.rows = rows;
  coo.cols = cols;
  Rng rng(seed);
  std::vector<int> row_cols;
  for (int r = 0; r < rows; ++r) {
    const int degree =
        r % 13 == 0 ? 30 : static_cast<int>(rng.UniformInt(6));
    row_cols.clear();
    while (static_cast<int>(row_cols.size()) < degree) {
      const int c = static_cast<int>(rng.UniformInt(cols));
      bool repeated = false;
      for (const int seen : row_cols) repeated = repeated || seen == c;
      if (repeated) continue;
      row_cols.push_back(c);
      coo.coords.push_back({r, c});
      coo.values.push_back(rng.UniformFloat(-2.0f, 2.0f));
    }
  }
  return coo;
}

// Fills the builder the sampler's way: one AddRowEntries call per row,
// issued from ParallelFor with row ownership.
CsrMatrix BuildByRowFill(const Coo& coo) {
  std::vector<std::vector<int>> row_cols(static_cast<size_t>(coo.rows));
  std::vector<std::vector<float>> row_vals(static_cast<size_t>(coo.rows));
  for (size_t i = 0; i < coo.coords.size(); ++i) {
    const auto [r, c] = coo.coords[i];
    row_cols[static_cast<size_t>(r)].push_back(c);
    row_vals[static_cast<size_t>(r)].push_back(coo.values[i]);
  }
  CsrBuilder builder(coo.rows, coo.cols);
  for (const auto& [r, c] : coo.coords) builder.CountEntry(r);
  builder.FinishCounting();
  builder.BeginRowFill();
  // Declares a grain per row, so the fill fans out whenever the sort would.
  ParallelFor(
      0, coo.rows,
      [&](int64_t begin, int64_t end) {
        for (int64_t r = begin; r < end; ++r) {
          const size_t row = static_cast<size_t>(r);
          builder.AddRowEntries(static_cast<int>(r), row_cols[row].data(),
                                row_vals[row].data(),
                                static_cast<int>(row_cols[row].size()));
        }
      },
      kMinWorkPerChunk);
  return builder.Build();
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void ExpectIdenticalCsr(const testing::PlainCsr& reference,
                        const CsrMatrix& m) {
  ASSERT_EQ(static_cast<int64_t>(reference.row_offsets.size()),
            int64_t{m.rows()} + 1);
  EXPECT_TRUE(SameBytes(reference.row_offsets, m.row_offsets()));
  EXPECT_TRUE(SameBytes(reference.col_idx, m.col_idx()));
  EXPECT_TRUE(SameBytes(reference.values, m.values()));  // bitwise
}

// Rows enough that the per-row sort exceeds the pool's grain and fans out
// (about 5 entries per row).
constexpr int kLargeRows = 120000;

class CsrBuilderTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreadCount(0); }
};

TEST_F(CsrBuilderTest, RowFillMatchesPlainReferenceAtAllThreadCounts) {
  const Coo coo = RandomDistinctRows(kLargeRows, 50000, /*seed=*/33);
  const testing::PlainCsr reference =
      testing::ReferenceCsr(coo.rows, coo.cols, coo.coords, coo.values);
  for (const int threads : {1, 4, 8}) {
    SetParallelThreadCount(threads);
    CsrMatrix built;
    const int64_t dispatches =
        testing::PoolDispatches([&] { built = BuildByRowFill(coo); });
    ExpectIdenticalCsr(reference, built);
    if (threads > 1) {
      EXPECT_GT(dispatches, 0) << "threads=" << threads;
    }
  }
}

TEST_F(CsrBuilderTest, RowFillRejectsARepeatedColumn) {
  Coo coo;
  coo.rows = 2;
  coo.cols = 3;
  coo.coords = {{0, 2}, {1, 0}, {0, 2}};
  coo.values = {1.0f, 2.0f, 3.0f};
  EXPECT_DEATH(BuildByRowFill(coo), "column 2 repeated in row 0");
}

TEST_F(CsrBuilderTest, EmptyRowsAndEmptyMatrix) {
  CsrBuilder builder(4, 4);
  builder.CountEntry(2);
  builder.FinishCounting();
  builder.BeginRowFill();
  const int col = 1;
  const float value = 7.0f;
  builder.AddRowEntries(2, &col, &value, 1);
  const CsrMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_EQ(m.RowNnz(0), 0);
  EXPECT_EQ(m.RowNnz(2), 1);

  CsrBuilder empty(3, 5);
  empty.FinishCounting();
  empty.BeginRowFill();
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

  // Row counts are post-collapse: the weight fn sees the final structure.
  EXPECT_EQ(builder.FinalRowNnz(0), 2);
  EXPECT_EQ(builder.FinalRowNnz(1), 0);
  EXPECT_EQ(builder.FinalRowNnz(2), 1);

  const CsrMatrix m = builder.BuildWithValues(
      [](int r, int c) { return static_cast<float>(10 * r + c); });
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.col_idx()[0], 1);
  EXPECT_EQ(m.values()[0], 1.0f);   // fn(0, 1)
  EXPECT_EQ(m.values()[1], 2.0f);   // fn(0, 2)
  EXPECT_EQ(m.values()[2], 20.0f);  // fn(2, 0)
}

TEST_F(CsrBuilderTest, EachBuildRecordsTheEntriesStreamedIn) {
  const bool enabled = TelemetryEnabled();
  SetTelemetryEnabled(true);
  ResetTelemetry();

  // Row fill: four entries over two rows.
  const Coo coo{.rows = 2,
                .cols = 4,
                .coords = {{0, 3}, {1, 1}, {0, 0}, {1, 2}},
                .values = {1.0f, 2.0f, 3.0f, 4.0f}};
  const CsrMatrix filled = BuildByRowFill(coo);
  const TelemetrySnapshot after_fill = SnapshotTelemetry();

  // Pattern mode: five entries streamed in, three left after the collapse.
  CsrBuilder pattern(2, 2);
  for (int i = 0; i < 3; ++i) pattern.CountEntry(0);
  for (int i = 0; i < 2; ++i) pattern.CountEntry(1);
  pattern.FinishCounting();
  pattern.AddPatternEntry(0, 1);
  pattern.AddPatternEntry(0, 1);
  pattern.AddPatternEntry(0, 0);
  pattern.AddPatternEntry(1, 1);
  pattern.AddPatternEntry(1, 1);
  pattern.FinalizePattern();
  const TelemetrySnapshot after_pattern = SnapshotTelemetry();
  const CsrMatrix weighted =
      pattern.BuildWithValues([](int, int) { return 1.0f; });
  const TelemetrySnapshot after_values = SnapshotTelemetry();
  SetTelemetryEnabled(enabled);

  EXPECT_EQ(filled.nnz(), 4);
  EXPECT_EQ(weighted.nnz(), 3);
  const MetricStat* fill_stat = after_fill.Find("sparse.csr_build");
  ASSERT_NE(fill_stat, nullptr);
  EXPECT_EQ(fill_stat->count, 1);
  EXPECT_EQ(fill_stat->items, 4);
  const MetricStat* pattern_stat = after_pattern.Find("sparse.csr_build");
  ASSERT_NE(pattern_stat, nullptr);
  EXPECT_EQ(pattern_stat->count, 2);
  EXPECT_EQ(pattern_stat->items, 4 + 5);
  // Assigning the weights records nothing more.
  const MetricStat* values_stat = after_values.Find("sparse.csr_build");
  ASSERT_NE(values_stat, nullptr);
  EXPECT_EQ(values_stat->count, 2);
  EXPECT_EQ(values_stat->items, 4 + 5);
}

}  // namespace
}  // namespace skipnode
