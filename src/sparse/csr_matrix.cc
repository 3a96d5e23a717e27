// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/csr_matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "base/check.h"
#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"
#include "sparse/csr_builder.h"

namespace skipnode {

CsrMatrix CsrMatrix::Identity(int n) {
  CsrBuilder builder(n, n);
  for (int i = 0; i < n; ++i) builder.CountEntry(i);
  builder.FinishCounting();
  for (int i = 0; i < n; ++i) builder.AddEntry(i, i, 1.0f);
  return builder.Build();
}

int64_t CsrMatrix::MemoryBytes() const {
  const int64_t offset_bytes =
      static_cast<int64_t>(row_ptr_.size()) * (row_ptr_.wide() ? 8 : 4);
  return offset_bytes + static_cast<int64_t>(col_idx_.size()) * sizeof(int) +
         static_cast<int64_t>(values_.size()) * sizeof(float);
}

void CsrMatrix::MultiplyAccumulate(const Matrix& dense, Matrix& out) const {
  const ScopedTimer timer("sparse.spmm", /*items=*/rows_);
  SKIPNODE_CHECK(dense.rows() == cols_);
  SKIPNODE_CHECK(out.rows() == rows_ && out.cols() == dense.cols());
  const int d = dense.cols();
  // Row-parallel: each thread owns a contiguous block of output rows, and a
  // row's neighbours accumulate in CSR order whatever the thread count, so
  // the SpMM is bitwise reproducible across SKIPNODE_NUM_THREADS settings.
  // Chunks are balanced by nnz (row_ptr_ is the cost prefix), so a hub row
  // cannot serialise its whole chunk on power-law-ish graphs. The per-entry
  // row update is the simd Axpy microkernel (vector lanes are independent
  // output columns, so vectorizing reorders nothing — DESIGN §14).
  WithOffsets(row_ptr_, [&](const auto* rp) {
    ParallelForBalanced(
        rows_, rp,
        [&](int64_t row_begin, int64_t row_end) {
          for (int r = static_cast<int>(row_begin); r < row_end; ++r) {
            float* __restrict or_ = out.row(r);
            for (int64_t e = rp[r]; e < rp[r + 1]; ++e) {
              const float w = values_[static_cast<size_t>(e)];
              const float* __restrict src =
                  dense.row(col_idx_[static_cast<size_t>(e)]);
              simd::Axpy(w, src, or_, d);
            }
          }
        },
        SpmmChunkCost(d));
  });
}

Matrix CsrMatrix::Multiply(const Matrix& dense) const {
  Matrix out(rows_, dense.cols());
  MultiplyAccumulate(dense, out);
  return out;
}

void CsrMatrix::MultiplyAccumulateMasked(const Matrix& dense,
                                         const std::vector<uint8_t>& skip_rows,
                                         Matrix& out) const {
  const ScopedTimer timer("sparse.spmm_masked", /*items=*/rows_);
  SKIPNODE_CHECK(dense.rows() == cols_);
  SKIPNODE_CHECK(out.rows() == rows_ && out.cols() == dense.cols());
  SKIPNODE_CHECK(static_cast<int>(skip_rows.size()) == rows_);
  const int d = dense.cols();
  // Same row-ownership partition as MultiplyAccumulate; a computed row's
  // neighbour sum never depends on which rows were skipped, so kept rows are
  // bitwise identical to the full multiply. Skipped rows are counted inside
  // the existing row loop (no extra O(rows) telemetry pass); the relaxed
  // atomic merge is integer-only, so it stays off the numeric path.
  const bool count_skips = TelemetryEnabled();
  std::atomic<int64_t> skipped{0};
  WithOffsets(row_ptr_, [&](const auto* rp) {
    ParallelForBalanced(
        rows_, rp,
        [&](int64_t row_begin, int64_t row_end) {
          int64_t chunk_skipped = 0;
          for (int r = static_cast<int>(row_begin); r < row_end; ++r) {
            if (skip_rows[r]) {
              ++chunk_skipped;
              continue;
            }
            float* __restrict or_ = out.row(r);
            for (int64_t e = rp[r]; e < rp[r + 1]; ++e) {
              const float w = values_[static_cast<size_t>(e)];
              const float* __restrict src =
                  dense.row(col_idx_[static_cast<size_t>(e)]);
              simd::Axpy(w, src, or_, d);
            }
          }
          if (count_skips) {
            skipped.fetch_add(chunk_skipped, std::memory_order_relaxed);
          }
        },
        SpmmChunkCost(d));
  });
  if (count_skips) {
    CountMetric("spmm.rows_skipped", skipped.load(std::memory_order_relaxed));
  }
}

const CsrMatrix::TransposePlan& CsrMatrix::transpose_plan() const {
  PlanCache* cache = plan_cache_.get();
  std::call_once(cache->once, [&] { BuildTransposePlan(&cache->plan); });
  return cache->plan;
}

namespace {

// Counting sort by column at the given offset width. Walking rows in
// ascending order fills each transposed row with its source rows ascending —
// the order the serial scatter accumulated them, which the gather kernels
// rely on.
template <typename Offset>
void BuildPlanArrays(int rows, int cols, const Offset* row_ptr,
                     const std::vector<int>& col_idx,
                     std::vector<Offset>* t_ptr, std::vector<int>* t_src,
                     std::vector<Offset>* t_perm) {
  t_ptr->assign(static_cast<size_t>(cols) + 1, 0);
  t_src->resize(col_idx.size());
  t_perm->resize(col_idx.size());
  for (const int c : col_idx) (*t_ptr)[static_cast<size_t>(c) + 1] += 1;
  for (int c = 0; c < cols; ++c) {
    (*t_ptr)[static_cast<size_t>(c) + 1] += (*t_ptr)[static_cast<size_t>(c)];
  }
  std::vector<Offset> cursor(t_ptr->begin(), t_ptr->end() - 1);
  for (int r = 0; r < rows; ++r) {
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const Offset pos = cursor[static_cast<size_t>(
          col_idx[static_cast<size_t>(e)])]++;
      (*t_src)[static_cast<size_t>(pos)] = r;
      (*t_perm)[static_cast<size_t>(pos)] = static_cast<Offset>(e);
    }
  }
}

}  // namespace

void CsrMatrix::BuildTransposePlan(TransposePlan* plan) const {
  const ScopedTimer timer("sparse.transpose_plan.build", /*items=*/nnz());
  // Exact symmetry (tolerance 0: float-equal mirrored values) lets the
  // forward CSR double as the transposed view. Equality must be exact, not
  // approximate — the gather reads A[c][r] where the scatter read A[r][c],
  // and only bit-identical weights keep the kernels bitwise interchangeable
  // (±0.0 compare equal, but a zero weight contributes +0.0 to a +0.0-seeded
  // accumulator either way).
  if (rows_ == cols_ && IsSymmetric(/*tolerance=*/0.0f)) {
    plan->symmetric_alias = true;
    return;
  }
  // The plan inherits the matrix's offset width: its row_ptr and value_perm
  // also count stored entries.
  if (row_ptr_.wide()) {
    std::vector<int64_t> t_ptr, t_perm;
    BuildPlanArrays(rows_, cols_, row_ptr_.data64(), col_idx_, &t_ptr,
                    &plan->src_row, &t_perm);
    plan->row_ptr = OffsetVec::Wide(std::move(t_ptr));
    plan->value_perm = OffsetVec::Wide(std::move(t_perm));
  } else {
    std::vector<int> t_ptr, t_perm;
    BuildPlanArrays(rows_, cols_, row_ptr_.data32(), col_idx_, &t_ptr,
                    &plan->src_row, &t_perm);
    plan->row_ptr = OffsetVec::Narrow(std::move(t_ptr));
    plan->value_perm = OffsetVec::Narrow(std::move(t_perm));
  }
}

Matrix CsrMatrix::MultiplyTransposed(const Matrix& dense) const {
  const ScopedTimer timer("sparse.spmm_t", /*items=*/cols_);
  SKIPNODE_CHECK(dense.rows() == rows_);
  Matrix out(cols_, dense.cols());
  const int d = dense.cols();
  const TransposePlan& plan = transpose_plan();
  // Row-owned gather over the transpose plan: output row c is written by
  // exactly one thread and accumulates column c's entries in increasing
  // source-row order — the order the serial scatter wrote them — so the
  // result is bitwise identical at any thread count (DESIGN §7).
  // t_val == nullptr means "the plan is the matrix itself" (symmetric alias).
  const auto run = [&](const auto* t_ptr, const int* t_src,
                       const auto* t_val) {
    ParallelForBalanced(
        cols_, t_ptr,
        [&](int64_t col_begin, int64_t col_end) {
          for (int c = static_cast<int>(col_begin); c < col_end; ++c) {
            float* __restrict or_ = out.row(c);
            for (int64_t e = t_ptr[c]; e < t_ptr[c + 1]; ++e) {
              const float w = values_[static_cast<size_t>(
                  t_val != nullptr ? t_val[e] : e)];
              const float* __restrict src =
                  dense.row(t_src[static_cast<size_t>(e)]);
              simd::Axpy(w, src, or_, d);
            }
          }
        },
        SpmmChunkCost(d));
  };
  if (plan.symmetric_alias) {
    if (row_ptr_.wide()) {
      run(row_ptr_.data64(), col_idx_.data(),
          static_cast<const int64_t*>(nullptr));
    } else {
      run(row_ptr_.data32(), col_idx_.data(),
          static_cast<const int*>(nullptr));
    }
  } else if (plan.row_ptr.wide()) {
    run(plan.row_ptr.data64(), plan.src_row.data(), plan.value_perm.data64());
  } else {
    run(plan.row_ptr.data32(), plan.src_row.data(), plan.value_perm.data32());
  }
  return out;
}

// Same gather as MultiplyTransposed, dropping entries whose source row is
// skipped — those rows of `dense` are never even read. Skipping an entry is
// bitwise equivalent to multiplying the zeroed row through: the dropped
// addend would be w * 0.0f = +0.0f, and the accumulators can never hold
// -0.0 (they start at +0.0 and IEEE round-to-nearest sums of finite values
// only produce -0.0 from two -0.0 addends), so x += +0.0f leaves every
// accumulator bit unchanged.
Matrix CsrMatrix::MultiplyTransposedMasked(
    const Matrix& dense, const std::vector<uint8_t>& skip_rows) const {
  const ScopedTimer timer("sparse.spmm_t_masked", /*items=*/cols_);
  SKIPNODE_CHECK(dense.rows() == rows_);
  SKIPNODE_CHECK(static_cast<int>(skip_rows.size()) == rows_);
  if (TelemetryEnabled()) {
    // The gather never iterates source rows, so the skipped-row count (items
    // = rows of `dense` masked off) takes one O(rows) pass — telemetry-gated
    // and integer-only, off the numeric path.
    int64_t skipped = 0;
    for (const uint8_t skip : skip_rows) skipped += skip != 0;
    CountMetric("spmm_t.rows_skipped", skipped);
  }
  Matrix out(cols_, dense.cols());
  const int d = dense.cols();
  const TransposePlan& plan = transpose_plan();
  const auto run = [&](const auto* t_ptr, const int* t_src,
                       const auto* t_val) {
    ParallelForBalanced(
        cols_, t_ptr,
        [&](int64_t col_begin, int64_t col_end) {
          for (int c = static_cast<int>(col_begin); c < col_end; ++c) {
            float* __restrict or_ = out.row(c);
            for (int64_t e = t_ptr[c]; e < t_ptr[c + 1]; ++e) {
              const int r = t_src[static_cast<size_t>(e)];
              if (skip_rows[r]) continue;
              const float w = values_[static_cast<size_t>(
                  t_val != nullptr ? t_val[e] : e)];
              const float* __restrict src = dense.row(r);
              simd::Axpy(w, src, or_, d);
            }
          }
        },
        SpmmChunkCost(d));
  };
  if (plan.symmetric_alias) {
    if (row_ptr_.wide()) {
      run(row_ptr_.data64(), col_idx_.data(),
          static_cast<const int64_t*>(nullptr));
    } else {
      run(row_ptr_.data32(), col_idx_.data(),
          static_cast<const int*>(nullptr));
    }
  } else if (plan.row_ptr.wide()) {
    run(plan.row_ptr.data64(), plan.src_row.data(), plan.value_perm.data64());
  } else {
    run(plan.row_ptr.data32(), plan.src_row.data(), plan.value_perm.data32());
  }
  return out;
}

Matrix CsrMatrix::RowSums() const {
  Matrix out(rows_, 1);
  for (int r = 0; r < rows_; ++r) {
    double total = 0.0;
    for (int64_t e = RowBegin(r); e < RowEnd(r); ++e) {
      total += values_[static_cast<size_t>(e)];
    }
    out(r, 0) = static_cast<float>(total);
  }
  return out;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t e = RowBegin(r); e < RowEnd(r); ++e) {
      out(r, col_idx_[static_cast<size_t>(e)]) +=
          values_[static_cast<size_t>(e)];
    }
  }
  return out;
}

bool CsrMatrix::IsSymmetric(float tolerance) const {
  if (rows_ != cols_) return false;
  // O(nnz log deg): for each entry (r, c, v), binary-search (c, r).
  for (int r = 0; r < rows_; ++r) {
    for (int64_t e = RowBegin(r); e < RowEnd(r); ++e) {
      const int c = col_idx_[static_cast<size_t>(e)];
      const auto begin = col_idx_.begin() + RowBegin(c);
      const auto end = col_idx_.begin() + RowEnd(c);
      const auto it = std::lower_bound(begin, end, r);
      if (it == end || *it != r) return false;
      const float mirrored = values_[static_cast<size_t>(
          it - col_idx_.begin())];
      if (std::fabs(mirrored - values_[static_cast<size_t>(e)]) > tolerance) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace skipnode
