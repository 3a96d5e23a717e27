// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/csr_builder.h"

#include <algorithm>
#include <utility>

#include "base/parallel.h"
#include "base/telemetry.h"

namespace skipnode {
namespace {

// Work units per streamed entry of the per-row sort: its share of the
// sort's comparisons and swaps, plus the copies in and out.
constexpr int64_t kSortWorkPerEntry = 32;

// Work units per entry of BuildWithValues: one call of the value function.
constexpr int64_t kValueWorkPerEntry = 8;

}  // namespace

CsrBuilder::CsrBuilder(int rows, int cols) : rows_(rows), cols_(cols) {
  SKIPNODE_CHECK(rows >= 0 && cols >= 0);
  counts_.assign(static_cast<size_t>(rows), 0);
}

void CsrBuilder::FinishCounting() {
  SKIPNODE_CHECK(phase_ == Phase::kCounting);
  phase_ = Phase::kFilling;
  offsets_.assign(static_cast<size_t>(rows_) + 1, 0);
  for (int r = 0; r < rows_; ++r) {
    offsets_[static_cast<size_t>(r) + 1] =
        offsets_[static_cast<size_t>(r)] + counts_[static_cast<size_t>(r)];
  }
  SKIPNODE_CHECK(offsets_[static_cast<size_t>(rows_)] == total_count_);
  col_idx_.resize(static_cast<size_t>(total_count_));
  // Reuse counts_ as the per-row fill cursors.
  for (int r = 0; r < rows_; ++r) {
    counts_[static_cast<size_t>(r)] = offsets_[static_cast<size_t>(r)];
  }
}

void CsrBuilder::AddPatternEntry(int row, int col) {
  SKIPNODE_CHECK(phase_ == Phase::kFilling && !row_fill_);
  SKIPNODE_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  const int64_t pos = counts_[static_cast<size_t>(row)]++;
  SKIPNODE_CHECK(pos < offsets_[static_cast<size_t>(row) + 1]);
  col_idx_[static_cast<size_t>(pos)] = col;
}

void CsrBuilder::BeginRowFill() {
  SKIPNODE_CHECK(phase_ == Phase::kFilling && !row_fill_);
  row_fill_ = true;
  values_.resize(col_idx_.size());
}

void CsrBuilder::AddRowEntries(int row, const int* cols, const float* values,
                               int n) {
  SKIPNODE_CHECK(phase_ == Phase::kFilling && row_fill_);
  SKIPNODE_CHECK(row >= 0 && row < rows_ && n >= 0);
  const int64_t pos = counts_[static_cast<size_t>(row)];
  SKIPNODE_CHECK(pos + n <= offsets_[static_cast<size_t>(row) + 1]);
  for (int i = 0; i < n; ++i) {
    SKIPNODE_CHECK(cols[i] >= 0 && cols[i] < cols_);
    col_idx_[static_cast<size_t>(pos + i)] = cols[i];
    values_[static_cast<size_t>(pos + i)] = values[i];
  }
  counts_[static_cast<size_t>(row)] = pos + n;
}

void CsrBuilder::CheckFilled() const {
  for (int r = 0; r < rows_; ++r) {
    SKIPNODE_CHECK(counts_[static_cast<size_t>(r)] ==
                   offsets_[static_cast<size_t>(r) + 1]);
  }
}

CsrMatrix CsrBuilder::Build() {
  SKIPNODE_CHECK(phase_ == Phase::kFilling && row_fill_);
  CheckFilled();
  const ScopedTimer timer("sparse.csr_build", /*items=*/total_count_);
  // Sort each row's (column, value) pairs by column. Rows are disjoint and
  // hold distinct columns, so the order is unique and the fan-out over rows
  // is bitwise identical at any thread count.
  ParallelForBalanced(
      rows_, offsets_.data(),
      [&](int64_t row_begin, int64_t row_end) {
        std::vector<std::pair<int, float>> row;
        for (int64_t r = row_begin; r < row_end; ++r) {
          const int64_t begin = offsets_[static_cast<size_t>(r)];
          const int64_t end = offsets_[static_cast<size_t>(r) + 1];
          row.clear();
          for (int64_t i = begin; i < end; ++i) {
            row.emplace_back(col_idx_[static_cast<size_t>(i)],
                             values_[static_cast<size_t>(i)]);
          }
          std::sort(row.begin(), row.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
          for (size_t k = 0; k < row.size(); ++k) {
            SKIPNODE_CHECK_MSG(k == 0 || row[k].first != row[k - 1].first,
                               "CsrBuilder: column %d repeated in row %lld",
                               row[k].first, static_cast<long long>(r));
            col_idx_[static_cast<size_t>(begin) + k] = row[k].first;
            values_[static_cast<size_t>(begin) + k] = row[k].second;
          }
        }
      },
      /*work_per_cost=*/kSortWorkPerEntry);
  return TakeMatrix();
}

void CsrBuilder::FinalizePattern() {
  SKIPNODE_CHECK(phase_ == Phase::kFilling && !row_fill_);
  CheckFilled();
  const ScopedTimer timer("sparse.csr_build", /*items=*/total_count_);
  // Sort each row segment and collapse repeats in place: the distinct
  // columns move to the segment's front and counts_ becomes the per-row
  // final count. Rows are disjoint, so this fans out over rows.
  ParallelForBalanced(
      rows_, offsets_.data(),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          const auto begin =
              col_idx_.begin() + offsets_[static_cast<size_t>(r)];
          const auto end =
              col_idx_.begin() + offsets_[static_cast<size_t>(r) + 1];
          std::sort(begin, end);
          counts_[static_cast<size_t>(r)] = std::unique(begin, end) - begin;
        }
      },
      /*work_per_cost=*/kSortWorkPerEntry);

  // Final row pointers, then a row-parallel compaction into a tight column
  // array (the segments still hold the repeats' slots).
  std::vector<int64_t> offsets(static_cast<size_t>(rows_) + 1, 0);
  for (int r = 0; r < rows_; ++r) {
    offsets[static_cast<size_t>(r) + 1] =
        offsets[static_cast<size_t>(r)] + counts_[static_cast<size_t>(r)];
  }
  std::vector<int> col_idx(static_cast<size_t>(offsets.back()));
  ParallelForBalanced(
      rows_, offsets.data(),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          std::copy_n(col_idx_.begin() + offsets_[static_cast<size_t>(r)],
                      counts_[static_cast<size_t>(r)],
                      col_idx.begin() + offsets[static_cast<size_t>(r)]);
        }
      },
      /*work_per_cost=*/1);
  offsets_ = std::move(offsets);
  col_idx_ = std::move(col_idx);
  phase_ = Phase::kPatternFinal;
}

int CsrBuilder::FinalRowNnz(int row) const {
  SKIPNODE_CHECK(phase_ == Phase::kPatternFinal);
  SKIPNODE_CHECK(row >= 0 && row < rows_);
  return static_cast<int>(offsets_[static_cast<size_t>(row) + 1] -
                          offsets_[static_cast<size_t>(row)]);
}

CsrMatrix CsrBuilder::BuildWithValues(
    const std::function<float(int, int)>& value_fn) {
  SKIPNODE_CHECK(phase_ == Phase::kPatternFinal);
  values_.resize(col_idx_.size());
  // Weights are a pure per-entry map — safe to fan out over rows.
  ParallelForBalanced(
      rows_, offsets_.data(),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          for (int64_t e = offsets_[static_cast<size_t>(r)];
               e < offsets_[static_cast<size_t>(r) + 1]; ++e) {
            values_[static_cast<size_t>(e)] = value_fn(
                static_cast<int>(r), col_idx_[static_cast<size_t>(e)]);
          }
        }
      },
      /*work_per_cost=*/kValueWorkPerEntry);
  return TakeMatrix();
}

CsrMatrix CsrBuilder::TakeMatrix() {
  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_ = std::move(offsets_);
  m.col_idx_ = std::move(col_idx_);
  m.values_ = std::move(values_);
  phase_ = Phase::kDone;
  return m;
}

}  // namespace skipnode
