// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Compressed-sparse-row matrix used for graph adjacency operators. The GCN
// forward pass is dominated by SpMM with these matrices.
//
// Index contract (DESIGN §13): row/column ids are `int` (node counts are
// ints everywhere), while the offset arrays — row_ptr and the transpose
// plan's row_ptr/value_perm, which count stored entries — are `int64_t`, so
// a matrix may hold more than INT32_MAX entries (the CLI's size bounds reach
// ~3.4 B).

#ifndef SKIPNODE_SPARSE_CSR_MATRIX_H_
#define SKIPNODE_SPARSE_CSR_MATRIX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace skipnode {

// Why a masked product leaves rows out. Only telemetry reads it (DESIGN
// §9): a computed row's arithmetic is the same either way.
enum class SkipReason {
  // SkipNode's sampled rows (DESIGN §10): timed as sparse.spmm_masked /
  // sparse.spmm_t_masked and counted in spmm.rows_skipped /
  // spmm_t.rows_skipped.
  kSkipNode,
  // Rows nothing downstream reads (the eval row plan, DESIGN §10): timed as
  // the unmasked sparse.spmm / sparse.spmm_t and counted in
  // spmm.rows_unread / spmm_t.rows_unread.
  kUnread,
};

// A weighted sparse matrix in CSR layout. Immutable after construction
// (copies may share the lazily-built transpose plan below, which is safe
// precisely because nothing ever mutates a built matrix).
class CsrMatrix {
 public:
  // Transposed-CSR view of the matrix: row c of the plan enumerates the
  // stored entries of column c in increasing source-row order — exactly the
  // order the serial scatter kernel visits them — which is what lets
  // MultiplyTransposed run as a row-parallel gather (DESIGN §7) while
  // staying bitwise identical to the old serial scatter at any thread count.
  struct TransposePlan {
    // True when the matrix is *exactly* symmetric (same sparsity pattern,
    // float-equal mirrored values): the forward row_offsets()/col_idx()/
    // values() arrays double as the transposed view, the vectors below stay
    // empty, and no second index set is materialised. Normalised
    // adjacencies Â = (D+I)^{-1/2}(A+I)(D+I)^{-1/2} always hit this path.
    bool symmetric_alias = false;
    // cols() + 1 offsets into the arrays below.
    std::vector<int64_t> row_ptr;
    // Source row of each transposed entry, and the index of its weight in
    // values().
    std::vector<int> src_row;
    std::vector<int64_t> value_perm;
  };

  // Empty 0x0 matrix.
  CsrMatrix()
      : rows_(0), cols_(0), row_ptr_(1, 0),
        plan_cache_(std::make_shared<PlanCache>()) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  // rows() + 1 offsets: row r's entries are [row_offsets()[r],
  // row_offsets()[r + 1]).
  const std::vector<int64_t>& row_offsets() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  // Entry range of row r.
  int64_t RowBegin(int r) const { return row_ptr_[static_cast<size_t>(r)]; }
  int64_t RowEnd(int r) const { return row_ptr_[static_cast<size_t>(r) + 1]; }

  // Number of stored entries in row r (fits int: at most cols()).
  int RowNnz(int r) const { return static_cast<int>(RowEnd(r) - RowBegin(r)); }

  // Heap bytes held by the index and value arrays (footprint accounting for
  // the scale bench; excludes the lazily-built transpose plan).
  int64_t MemoryBytes() const;

  // Returns this * dense. dense is cols() x d.
  Matrix Multiply(const Matrix& dense) const;

  // out += this * dense. Rows r with skip_rows[r] != 0 are not touched at
  // all — the SkipNode fused forward and the eval row plan (DESIGN §10); an
  // empty span skips nothing. A computed row accumulates in the same order
  // whatever the mask, so kept rows are bitwise identical to a full
  // multiply at any thread count. `reason` names the counter a masked call
  // bumps.
  void MultiplyAccumulate(const Matrix& dense, Matrix& out,
                          std::span<const uint8_t> skip_rows = {},
                          SkipReason reason = SkipReason::kSkipNode) const;

  // Returns this^T * dense, as a row-parallel gather over the cached
  // transpose plan (no dense transpose materialised). Bitwise identical to
  // the serial scatter formulation at any thread count: output row c
  // accumulates its contributions in increasing source-row order either way.
  // Rows r of `dense` with skip_rows[r] != 0 are never read, which is
  // bitwise the same as multiplying a copy with those rows zeroed — the
  // SkipNode fused backward, where the output gradient of a skipped row must
  // not reach the convolution input. An empty span skips nothing; `reason`
  // names the counter a masked call bumps.
  Matrix MultiplyTransposed(
      const Matrix& dense, std::span<const uint8_t> skip_rows = {},
      SkipReason reason = SkipReason::kSkipNode) const;

  // The cached transpose plan, built on first use (thread-safe via
  // std::call_once; one build per matrix, shared by copies).
  const TransposePlan& transpose_plan() const;

  // Sum of stored values in each row (rows x 1), for tests and checks.
  // Contract: each row accumulates in double and rounds to float once at
  // the end, so a sum does not depend on how many entries it adds up.
  // Pinned by csr_matrix_test.
  Matrix RowSums() const;

  // Dense copy (tests / tiny matrices only).
  Matrix ToDense() const;

  // True if the sparsity pattern and values are symmetric (square only).
  bool IsSymmetric(float tolerance = 1e-6f) const;

 private:
  friend class CsrBuilder;  // The single construction path (DESIGN §13).

  // Heap cell owning the lazily-built transpose plan and its build-once
  // flag. Held by shared_ptr so the (non-copyable) std::once_flag never
  // blocks CsrMatrix copies; copies share the cell, which is sound because
  // they share the index arrays the plan describes.
  struct PlanCache {
    std::once_flag once;
    TransposePlan plan;
  };

  void BuildTransposePlan(TransposePlan* plan) const;

  int rows_;
  int cols_;
  std::vector<int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<float> values_;
  std::shared_ptr<PlanCache> plan_cache_;
};

}  // namespace skipnode

#endif  // SKIPNODE_SPARSE_CSR_MATRIX_H_
