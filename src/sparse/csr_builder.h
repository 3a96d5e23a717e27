// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Streaming two-pass CSR constructor: the single construction path for
// CsrMatrix (DESIGN §13). Callers stream their entries twice — once to
// count per-row entries, once to fill — and the builder lays the matrix out
// directly in compact CSR form, so no intermediate COO triplet vector is
// ever materialised (the retired FromCoo path peaked at ~3x the final
// footprint at 10M edges).
//
// Two fill modes, chosen by the second pass:
//   * Row fill — BeginRowFill, then AddRowEntries(row, cols, values, n)
//     calls, which parallel code may issue for disjoint rows (the sampler's
//     block build). Each column appears at most once per row; Build() sorts
//     every row by column and returns the matrix.
//   * Pattern mode — AddPatternEntry(r, c); FinalizePattern() collapses
//     repeated coordinates to a single entry, after which FinalRowNnz
//     exposes the final row counts and BuildWithValues(fn) assigns each
//     entry's weight as fn(r, c). This is the normaliser's path
//     (NormalizedAdjacency): the Â weights need the final degrees, which
//     exist only once repeats have collapsed.
//
// The two passes must stream the same per-row counts; the builder checks
// that they line up. Per-row sorting fans out with ParallelForBalanced over
// rows (row segments are disjoint), so building is parallel yet bitwise
// deterministic at any thread count (DESIGN §7).

#ifndef SKIPNODE_SPARSE_CSR_BUILDER_H_
#define SKIPNODE_SPARSE_CSR_BUILDER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/check.h"
#include "sparse/csr_matrix.h"

namespace skipnode {

class CsrBuilder {
 public:
  CsrBuilder(int rows, int cols);

  // --- Pass 1: counting -----------------------------------------------
  void CountEntry(int row) {
    SKIPNODE_CHECK(phase_ == Phase::kCounting);
    SKIPNODE_CHECK(row >= 0 && row < rows_);
    ++counts_[row];
    ++total_count_;
  }

  // Freezes the counts: prefix-sums the row pointers and allocates the
  // column buffer.
  void FinishCounting();

  // --- Pass 2: filling ------------------------------------------------
  // Every counted entry must be added after FinishCounting, with per-row
  // multiplicity matching the counting pass (order within and across rows
  // is free).
  void AddPatternEntry(int row, int col);

  // Switches the fill pass to row fill: allocates the value buffer up front
  // so the AddRowEntries calls below may run from parallel code. Call once,
  // serially, after FinishCounting; AddPatternEntry is disallowed
  // afterwards.
  void BeginRowFill();

  // Appends `n` (col, value) entries to `row`'s segment in one call. Safe to
  // call concurrently for *different* rows — each row must be filled by
  // exactly one thread (ParallelFor row ownership, DESIGN §7); the per-row
  // cursors and segments are disjoint, so no synchronisation is needed.
  void AddRowEntries(int row, const int* cols, const float* values, int n);

  // --- Finish: row fill -----------------------------------------------
  // Checks every row's segment filled up exactly, sorts each row by column
  // (a column repeated within a row aborts), and returns the matrix. The
  // builder is consumed.
  CsrMatrix Build();

  // --- Finish: pattern mode -------------------------------------------
  // Sorts each row and collapses repeated coordinates to one entry.
  void FinalizePattern();
  // Entries left in `row` once repeats collapsed; valid after
  // FinalizePattern.
  int FinalRowNnz(int row) const;
  // Assigns every entry's weight as value_fn(row, col) (invoked
  // row-parallel; it must be pure) and returns the matrix. The builder is
  // consumed.
  CsrMatrix BuildWithValues(const std::function<float(int, int)>& value_fn);

 private:
  enum class Phase { kCounting, kFilling, kPatternFinal, kDone };

  // Checks every row's fill cursor reached its segment end: the fill
  // matched the count pass.
  void CheckFilled() const;
  CsrMatrix TakeMatrix();

  int rows_;
  int cols_;
  Phase phase_ = Phase::kCounting;
  int64_t total_count_ = 0;
  bool row_fill_ = false;

  // Counting pass: per-row counts; after FinishCounting, reused as the
  // per-row fill cursors; in FinalizePattern, the per-row final counts.
  std::vector<int64_t> counts_;
  // The matrix arrays under construction. Row r fills the segment
  // [offsets_[r], offsets_[r+1]); FinalizePattern replaces offsets_ and
  // col_idx_ with their compacted forms.
  std::vector<int64_t> offsets_;
  std::vector<int> col_idx_;
  std::vector<float> values_;
};

}  // namespace skipnode

#endif  // SKIPNODE_SPARSE_CSR_BUILDER_H_
