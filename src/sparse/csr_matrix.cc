// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "sparse/csr_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <span>
#include <type_traits>

#include "base/check.h"
#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"

namespace skipnode {

int64_t CsrMatrix::MemoryBytes() const {
  return static_cast<int64_t>(row_ptr_.size()) * sizeof(int64_t) +
         static_cast<int64_t>(col_idx_.size()) * sizeof(int) +
         static_cast<int64_t>(values_.size()) * sizeof(float);
}

namespace {

// Which rows a product leaves out (DESIGN §10).
enum class Skip {
  kNone,
  // Output rows the mask names are neither computed nor written: the
  // SkipNode forward (Eq. 4).
  kOutputRows,
  // Rows of `dense` the mask names are never read: the fused backward.
  // Dropping an entry is bitwise the same as multiplying its zeroed row
  // through: the addend would be w * 0.0f = +0.0f, and the accumulators can
  // never hold -0.0 (they start at +0.0 and IEEE round-to-nearest sums of
  // finite values only produce -0.0 from two -0.0 addends), so x += +0.0f
  // leaves every accumulator bit unchanged.
  kSourceRows,
};

// A dense operand larger than this outgrows a core's L2 (2 MB per core on
// the reference Xeon), so every row the gather reads waits on L3. Above it
// the gather prefetches every cache line of the row kPrefetchAhead entries
// ahead; below it a prefetch only costs instructions (up to 20 % on a
// cora_like operand). The choice reads the operand's shape alone, and a
// prefetch is not arithmetic, so row ownership and every output bit stay
// put (DESIGN §7, §14).
constexpr int64_t kPrefetchMinBytes = int64_t{4} << 20;
constexpr int64_t kPrefetchAhead = 16;
constexpr int kFloatsPerCacheLine = 16;

// The one sparse gather behind every CsrMatrix product: output row i adds
// values[perm ? perm[e] : e] * dense.row(src[e]) over its entries
// [ptr[i], ptr[i + 1]), in entry order. Each output row is owned by exactly
// one thread and the order of its entries never depends on the thread count
// or on which other rows are skipped, so every product is bitwise
// reproducible at any SKIPNODE_NUM_THREADS (DESIGN §7). Chunks are balanced
// by entry count (`ptr` is the cost prefix), so a hub row cannot serialise
// its chunk on power-law graphs. The per-entry update is the simd Axpy
// microkernel; its lanes are independent output columns, so vectorizing
// reorders nothing (DESIGN §14). The skip mode, the prefetch and the
// permutation (`Perm` is std::nullptr_t without one) are template
// parameters, so an unmasked product tests nothing per entry and a product
// below kPrefetchMinBytes runs the loop without a prefetch in it.
template <Skip kSkip, bool kPrefetch, typename Perm>
void RowGather(const int64_t* ptr, const int* src, Perm perm,
               const float* values, const uint8_t* skip, const Matrix& dense,
               Matrix& out) {
  const int d = dense.cols();
  ParallelForBalanced(
      out.rows(), ptr,
      [&](int64_t row_begin, int64_t row_end) {
        // The chunk's last entry: a prefetch never reads `src` past it.
        const int64_t last_entry = ptr[row_end] - 1;
        for (int i = static_cast<int>(row_begin); i < row_end; ++i) {
          if constexpr (kSkip == Skip::kOutputRows) {
            if (skip[i]) continue;
          }
          float* __restrict out_row = out.row(i);
          for (int64_t e = ptr[i]; e < ptr[i + 1]; ++e) {
            if constexpr (kPrefetch) {
              const float* ahead =
                  dense.row(src[std::min(e + kPrefetchAhead, last_entry)]);
              for (int c = 0; c < d; c += kFloatsPerCacheLine) {
                __builtin_prefetch(ahead + c);
              }
            }
            const int s = src[e];
            if constexpr (kSkip == Skip::kSourceRows) {
              if (skip[s]) continue;
            }
            int64_t k = e;  // index of the entry's weight in `values`
            if constexpr (!std::is_null_pointer_v<Perm>) k = perm[e];
            simd::Axpy(values[k], dense.row(s), out_row, d);
          }
        }
      },
      // An entry is a d-column Axpy plus its index and weight loads.
      /*work_per_cost=*/d + 1);
}

// Binds one product's runtime choices to RowGather's template parameters,
// once per call and outside every loop: whether there is a permutation,
// whether the mask is empty (every row computed) or leaves out `kMasked`
// rows, and whether `dense` is large enough to prefetch.
template <Skip kMasked>
void Gather(const int64_t* ptr, const int* src, const int64_t* perm,
            const float* values, std::span<const uint8_t> skip_rows,
            const Matrix& dense, Matrix& out) {
  const bool prefetch = dense.size() * static_cast<int64_t>(sizeof(float)) >
                        kPrefetchMinBytes;
  const auto run_with = [&](auto q, auto prefetch_tag) {
    constexpr bool kPrefetch = decltype(prefetch_tag)::value;
    if (skip_rows.empty()) {
      RowGather<Skip::kNone, kPrefetch>(ptr, src, q, values, nullptr, dense,
                                        out);
    } else {
      RowGather<kMasked, kPrefetch>(ptr, src, q, values, skip_rows.data(),
                                    dense, out);
    }
  };
  const auto run = [&](auto q) {
    if (prefetch) {
      run_with(q, std::true_type{});
    } else {
      run_with(q, std::false_type{});
    }
  };
  if (perm == nullptr) {
    run(nullptr);
  } else {
    run(perm);
  }
}

// Telemetry only: the number of masked rows, counted in one integer pass
// off the numeric path.
void CountSkippedRows(const char* counter,
                      std::span<const uint8_t> skip_rows) {
  if (skip_rows.empty() || !TelemetryEnabled()) return;
  int64_t skipped = 0;
  for (const uint8_t skip : skip_rows) skipped += skip != 0;
  CountMetric(counter, skipped);
}

}  // namespace

void CsrMatrix::MultiplyAccumulate(const Matrix& dense, Matrix& out,
                                   std::span<const uint8_t> skip_rows,
                                   SkipReason reason) const {
  const bool masked = !skip_rows.empty();
  const bool skipnode = masked && reason == SkipReason::kSkipNode;
  const ScopedTimer timer(skipnode ? "sparse.spmm_masked" : "sparse.spmm",
                          /*items=*/rows_);
  SKIPNODE_CHECK(dense.rows() == cols_);
  SKIPNODE_CHECK(out.rows() == rows_ && out.cols() == dense.cols());
  SKIPNODE_CHECK(!masked || std::ssize(skip_rows) == rows_);
  CountSkippedRows(skipnode ? "spmm.rows_skipped" : "spmm.rows_unread",
                   skip_rows);
  Gather<Skip::kOutputRows>(row_ptr_.data(), col_idx_.data(),
                            /*perm=*/nullptr, values_.data(), skip_rows, dense,
                            out);
}

Matrix CsrMatrix::Multiply(const Matrix& dense) const {
  Matrix out(rows_, dense.cols());
  MultiplyAccumulate(dense, out);
  return out;
}

const CsrMatrix::TransposePlan& CsrMatrix::transpose_plan() const {
  PlanCache* cache = plan_cache_.get();
  std::call_once(cache->once, [&] { BuildTransposePlan(&cache->plan); });
  return cache->plan;
}

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
  // Counting sort by column. Walking rows in ascending order fills each
  // transposed row with its source rows ascending — the order the serial
  // scatter accumulated them, which the gather relies on.
  plan->row_ptr.assign(static_cast<size_t>(cols_) + 1, 0);
  plan->src_row.resize(col_idx_.size());
  plan->value_perm.resize(col_idx_.size());
  for (const int c : col_idx_) plan->row_ptr[static_cast<size_t>(c) + 1] += 1;
  for (int c = 0; c < cols_; ++c) {
    plan->row_ptr[static_cast<size_t>(c) + 1] +=
        plan->row_ptr[static_cast<size_t>(c)];
  }
  std::vector<int64_t> cursor(plan->row_ptr.begin(), plan->row_ptr.end() - 1);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t e = RowBegin(r); e < RowEnd(r); ++e) {
      const int64_t pos =
          cursor[static_cast<size_t>(col_idx_[static_cast<size_t>(e)])]++;
      plan->src_row[static_cast<size_t>(pos)] = r;
      plan->value_perm[static_cast<size_t>(pos)] = e;
    }
  }
}

Matrix CsrMatrix::MultiplyTransposed(const Matrix& dense,
                                     std::span<const uint8_t> skip_rows,
                                     SkipReason reason) const {
  const bool masked = !skip_rows.empty();
  const bool skipnode = masked && reason == SkipReason::kSkipNode;
  const ScopedTimer timer(skipnode ? "sparse.spmm_t_masked" : "sparse.spmm_t",
                          /*items=*/cols_);
  SKIPNODE_CHECK(dense.rows() == rows_);
  SKIPNODE_CHECK(!masked || std::ssize(skip_rows) == rows_);
  CountSkippedRows(skipnode ? "spmm_t.rows_skipped" : "spmm_t.rows_unread",
                   skip_rows);
  Matrix out(cols_, dense.cols());
  // Output row c gathers column c's entries in increasing source-row order —
  // the order the serial scatter wrote them. A symmetric matrix is its own
  // transposed view.
  const TransposePlan& plan = transpose_plan();
  if (plan.symmetric_alias) {
    Gather<Skip::kSourceRows>(row_ptr_.data(), col_idx_.data(),
                              /*perm=*/nullptr, values_.data(), skip_rows,
                              dense, out);
  } else {
    Gather<Skip::kSourceRows>(plan.row_ptr.data(), plan.src_row.data(),
                              plan.value_perm.data(), values_.data(),
                              skip_rows, dense, out);
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
