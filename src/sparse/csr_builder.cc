// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/csr_builder.h"

#include <algorithm>
#include <utility>

#include "base/parallel.h"
#include "base/telemetry.h"

namespace skipnode {
namespace {

// Work units per raw entry of the per-row merge: its share of the sort's
// comparisons and swaps, plus the staging copies.
constexpr int64_t kMergeWorkPerEntry = 32;

// Work units per entry of BuildWithValues: one call of the value function.
constexpr int64_t kValueWorkPerEntry = 8;

}  // namespace

CsrBuilder::CsrBuilder(int rows, int cols) : rows_(rows), cols_(cols) {
  SKIPNODE_CHECK(rows >= 0 && cols >= 0);
  counts_.assign(static_cast<size_t>(rows) + 1, 0);
}

void CsrBuilder::FinishCounting() {
  SKIPNODE_CHECK(phase_ == Phase::kCounting);
  phase_ = Phase::kFilling;
  raw_offsets_.assign(static_cast<size_t>(rows_) + 1, 0);
  for (int r = 0; r < rows_; ++r) {
    raw_offsets_[static_cast<size_t>(r) + 1] =
        raw_offsets_[static_cast<size_t>(r)] + counts_[static_cast<size_t>(r)];
  }
  SKIPNODE_CHECK(raw_offsets_[static_cast<size_t>(rows_)] == total_count_);
  cols_buf_.resize(static_cast<size_t>(total_count_));
  // Reuse counts_ as the per-row fill cursors.
  for (int r = 0; r < rows_; ++r) {
    counts_[static_cast<size_t>(r)] = raw_offsets_[static_cast<size_t>(r)];
  }
}

void CsrBuilder::AddEntry(int row, int col, float value) {
  SKIPNODE_CHECK(phase_ == Phase::kFilling && !row_fill_);
  if (!has_values_) {
    SKIPNODE_CHECK(added_ == 0);  // No mixing with AddPatternEntry.
    has_values_ = true;
    vals_buf_.resize(cols_buf_.size());
  }
  SKIPNODE_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  const int64_t pos = counts_[static_cast<size_t>(row)]++;
  SKIPNODE_CHECK(pos < raw_offsets_[static_cast<size_t>(row) + 1]);
  cols_buf_[static_cast<size_t>(pos)] = col;
  vals_buf_[static_cast<size_t>(pos)] = value;
  ++added_;
}

void CsrBuilder::BeginRowFill() {
  SKIPNODE_CHECK(phase_ == Phase::kFilling);
  SKIPNODE_CHECK(added_ == 0 && !has_values_ && !row_fill_);
  row_fill_ = true;
  has_values_ = true;
  vals_buf_.resize(cols_buf_.size());
}

void CsrBuilder::AddRowEntries(int row, const int* cols, const float* values,
                               int n) {
  SKIPNODE_CHECK(phase_ == Phase::kFilling && row_fill_);
  SKIPNODE_CHECK(row >= 0 && row < rows_ && n >= 0);
  const int64_t pos = counts_[static_cast<size_t>(row)];
  SKIPNODE_CHECK(pos + n <= raw_offsets_[static_cast<size_t>(row) + 1]);
  for (int i = 0; i < n; ++i) {
    SKIPNODE_CHECK(cols[i] >= 0 && cols[i] < cols_);
    cols_buf_[static_cast<size_t>(pos + i)] = cols[i];
    vals_buf_[static_cast<size_t>(pos + i)] = values[i];
  }
  counts_[static_cast<size_t>(row)] = pos + n;
}

void CsrBuilder::AddPatternEntry(int row, int col) {
  SKIPNODE_CHECK(phase_ == Phase::kFilling && !row_fill_);
  SKIPNODE_CHECK(!has_values_);
  SKIPNODE_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  const int64_t pos = counts_[static_cast<size_t>(row)]++;
  SKIPNODE_CHECK(pos < raw_offsets_[static_cast<size_t>(row) + 1]);
  cols_buf_[static_cast<size_t>(pos)] = col;
  ++added_;
}

void CsrBuilder::MergeRows(bool with_values) {
  SKIPNODE_CHECK(phase_ == Phase::kFilling);
  if (row_fill_) {
    // Row-owner fill: the shared added_ counter stays untouched (parallel
    // writers), so completeness is every per-row cursor at its segment end.
    for (int r = 0; r < rows_; ++r) {
      SKIPNODE_CHECK(counts_[static_cast<size_t>(r)] ==
                     raw_offsets_[static_cast<size_t>(r) + 1]);
    }
  } else {
    SKIPNODE_CHECK(added_ == total_count_);  // Fill matched the count pass.
  }
  const ScopedTimer timer("sparse.csr_build", /*items=*/total_count_);

  // Sort each raw row segment by column and merge duplicates in place (the
  // unique entries compact to the segment's front). Rows are disjoint, so
  // this fans out over rows; within a row everything is sequential, keeping
  // the merge (and any duplicate sums) bitwise identical at any thread
  // count. counts_ becomes the per-row unique count.
  ParallelForBalanced(
      rows_, raw_offsets_.data(),
      [&](int64_t row_begin, int64_t row_end) {
        std::vector<std::pair<int, int>> order;  // (col, arrival rank)
        for (int64_t r = row_begin; r < row_end; ++r) {
          const int64_t b = raw_offsets_[static_cast<size_t>(r)];
          const int64_t e = raw_offsets_[static_cast<size_t>(r) + 1];
          if (b == e) {
            counts_[static_cast<size_t>(r)] = 0;
            continue;
          }
          if (!with_values) {
            // Pattern mode: duplicates collapse, so a plain sort + unique.
            std::sort(cols_buf_.begin() + b, cols_buf_.begin() + e);
            const auto last =
                std::unique(cols_buf_.begin() + b, cols_buf_.begin() + e);
            counts_[static_cast<size_t>(r)] = last - (cols_buf_.begin() + b);
            continue;
          }
          // Value mode: sort (col, arrival rank) pairs — the rank makes the
          // sort stable, so duplicate coordinates sum in insertion order.
          order.clear();
          order.reserve(static_cast<size_t>(e - b));
          for (int64_t i = b; i < e; ++i) {
            order.emplace_back(cols_buf_[static_cast<size_t>(i)],
                               static_cast<int>(i - b));
          }
          std::sort(order.begin(), order.end());
          int64_t unique = 0;
          int prev_col = -1;
          // Scratch-free in-place compaction is unsafe here (a merged value
          // may still be read later), so stage through small per-row copies.
          std::vector<int> merged_cols;
          std::vector<float> merged_vals;
          merged_cols.reserve(order.size());
          merged_vals.reserve(order.size());
          for (const auto& [col, rank] : order) {
            const float v = vals_buf_[static_cast<size_t>(b + rank)];
            if (col == prev_col) {
              merged_vals.back() += v;
              continue;
            }
            merged_cols.push_back(col);
            merged_vals.push_back(v);
            prev_col = col;
            ++unique;
          }
          std::copy(merged_cols.begin(), merged_cols.end(),
                    cols_buf_.begin() + b);
          std::copy(merged_vals.begin(), merged_vals.end(),
                    vals_buf_.begin() + b);
          counts_[static_cast<size_t>(r)] = unique;
        }
      },
      /*work_per_cost=*/kMergeWorkPerEntry);

  // Final offsets, then a row-parallel compaction into tight arrays (the
  // raw buffers still hold per-row gaps).
  offsets_.assign(static_cast<size_t>(rows_) + 1, 0);
  for (int r = 0; r < rows_; ++r) {
    offsets_[static_cast<size_t>(r) + 1] =
        offsets_[static_cast<size_t>(r)] + counts_[static_cast<size_t>(r)];
  }
  final_nnz_ = offsets_.back();
  final_cols_.resize(static_cast<size_t>(final_nnz_));
  if (with_values) final_vals_.resize(static_cast<size_t>(final_nnz_));
  ParallelForBalanced(
      rows_, offsets_.data(),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          const int64_t src = raw_offsets_[static_cast<size_t>(r)];
          const int64_t dst = offsets_[static_cast<size_t>(r)];
          const int64_t n = counts_[static_cast<size_t>(r)];
          std::copy_n(cols_buf_.begin() + src, n, final_cols_.begin() + dst);
          if (with_values) {
            std::copy_n(vals_buf_.begin() + src, n, final_vals_.begin() + dst);
          }
        }
      },
      /*work_per_cost=*/1);
  cols_buf_.clear();
  cols_buf_.shrink_to_fit();
  vals_buf_.clear();
  vals_buf_.shrink_to_fit();
}

CsrMatrix CsrBuilder::TakeMatrix() {
  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_ = std::move(offsets_);
  m.col_idx_ = std::move(final_cols_);
  m.values_ = std::move(final_vals_);
  phase_ = Phase::kDone;
  return m;
}

CsrMatrix CsrBuilder::Build() {
  SKIPNODE_CHECK(has_values_ || total_count_ == 0);
  if (!has_values_) vals_buf_.resize(cols_buf_.size());
  MergeRows(/*with_values=*/true);
  return TakeMatrix();
}

void CsrBuilder::FinalizePattern() {
  SKIPNODE_CHECK(!has_values_);
  MergeRows(/*with_values=*/false);
  phase_ = Phase::kPatternFinal;
}

int CsrBuilder::FinalRowNnz(int row) const {
  SKIPNODE_CHECK(phase_ == Phase::kPatternFinal);
  SKIPNODE_CHECK(row >= 0 && row < rows_);
  return static_cast<int>(counts_[static_cast<size_t>(row)]);
}

CsrMatrix CsrBuilder::BuildWithValues(
    const std::function<float(int, int)>& value_fn) {
  SKIPNODE_CHECK(phase_ == Phase::kPatternFinal);
  final_vals_.resize(static_cast<size_t>(final_nnz_));
  // Weights are a pure per-entry map — safe to fan out over rows.
  ParallelForBalanced(
      rows_, offsets_.data(),
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          for (int64_t e = offsets_[static_cast<size_t>(r)];
               e < offsets_[static_cast<size_t>(r) + 1]; ++e) {
            final_vals_[static_cast<size_t>(e)] = value_fn(
                static_cast<int>(r), final_cols_[static_cast<size_t>(e)]);
          }
        }
      },
      /*work_per_cost=*/kValueWorkPerEntry);
  return TakeMatrix();
}

}  // namespace skipnode
