// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Streaming two-pass CSR constructor: the single construction path for
// CsrMatrix (DESIGN §13). Callers stream their entries twice — once to
// count per-row degrees, once to fill — and the builder lays the matrix out
// directly in compact CSR form, so no intermediate COO triplet vector is
// ever materialised (the retired FromCoo path peaked at ~3x the final
// footprint at 10M edges).
//
// Two fill modes, chosen by which Add call the second pass uses:
//   * Value mode  — AddEntry(r, c, v); Build() sorts each row by column and
//     sums duplicate coordinates in per-row insertion order (every producer
//     of duplicates in this codebase emits float-equal values per
//     coordinate, so the sum is order-independent anyway). BeginRowFill /
//     AddRowEntries switch the fill pass to row-owner mode, where parallel
//     code may fill disjoint rows concurrently (the sampler's block build).
//   * Pattern mode — AddPatternEntry(r, c); FinalizePattern() collapses
//     duplicates to a single entry, after which FinalRowNnz exposes the
//     deduplicated degrees and BuildWithValues(fn) assigns each surviving
//     entry's weight as fn(r, c). This is the streaming-generator path:
//     degree-dependent weights (the Â normalisation) need the *final*
//     degrees, which only exist after deduplication.
//
// The two passes must stream identical entry sequences; the builder checks
// the counts line up. Per-row sorting/merging fans out with
// ParallelForBalanced over rows (row segments are disjoint), so building is
// parallel yet bitwise deterministic at any thread count (DESIGN §7).

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

  // Raw (pre-deduplication) entries counted so far for `row`. Valid during
  // counting; graph normalisation reads these as degrees before appending
  // the self-loop counts.
  int64_t RowCount(int row) const {
    SKIPNODE_CHECK(row >= 0 && row < rows_);
    return counts_[row];
  }
  int64_t total_count() const { return total_count_; }

  // Freezes the counts: prefix-sums the row pointers and allocates the
  // fill buffers.
  void FinishCounting();

  // --- Pass 2: filling ------------------------------------------------
  // Exactly total_count() Add*Entry calls must follow FinishCounting, with
  // per-row multiplicity matching the counting pass (order within and
  // across rows is free).
  void AddEntry(int row, int col, float value);
  void AddPatternEntry(int row, int col);

  // Switches the fill pass to row-owner value mode: allocates the value
  // buffer up front so the AddRowEntries calls below may run from parallel
  // code. Call once, serially, after FinishCounting; AddEntry /
  // AddPatternEntry are disallowed afterwards.
  void BeginRowFill();

  // Appends `n` (col, value) entries to `row`'s segment in one call. Safe to
  // call concurrently for *different* rows — each row must be filled by
  // exactly one thread (ParallelFor row ownership, DESIGN §7); the per-row
  // cursors and segments are disjoint, so no synchronisation is needed.
  // Requires BeginRowFill; Build() verifies every row's segment filled up
  // exactly.
  void AddRowEntries(int row, const int* cols, const float* values, int n);

  // --- Finish: value mode ---------------------------------------------
  // Sorts each row by column, sums duplicates in per-row insertion order,
  // and returns the matrix. The builder is consumed.
  CsrMatrix Build();

  // --- Finish: pattern mode -------------------------------------------
  // Sorts each row and collapses duplicate coordinates to one entry.
  void FinalizePattern();
  // Post-deduplication entries in `row`; valid after FinalizePattern.
  int FinalRowNnz(int row) const;
  int64_t final_nnz() const { return final_nnz_; }
  // Assigns every surviving entry's weight as value_fn(row, col) (invoked
  // row-parallel; it must be pure) and returns the matrix. The builder is
  // consumed.
  CsrMatrix BuildWithValues(const std::function<float(int, int)>& value_fn);

 private:
  enum class Phase { kCounting, kFilling, kPatternFinal, kDone };

  // Shared sort/merge/compact tail. In value mode duplicate coordinates sum
  // (insertion order); in pattern mode they collapse.
  void MergeRows(bool with_values);
  CsrMatrix TakeMatrix();

  int rows_;
  int cols_;
  Phase phase_ = Phase::kCounting;
  int64_t total_count_ = 0;
  int64_t added_ = 0;
  bool has_values_ = false;
  // Set by BeginRowFill: fill completeness is verified per row (cursor ==
  // segment end) instead of via the shared added_ counter, which parallel
  // AddRowEntries calls must not touch.
  bool row_fill_ = false;

  // Counting pass: per-row raw counts; after FinishCounting, reused as the
  // per-row fill cursors; after MergeRows, holds per-row unique counts.
  std::vector<int64_t> counts_;
  // Raw row segments [raw_offsets_[r], raw_offsets_[r+1]).
  std::vector<int64_t> raw_offsets_;
  std::vector<int> cols_buf_;
  std::vector<float> vals_buf_;

  // Final CSR arrays (populated by MergeRows).
  std::vector<int64_t> offsets_;
  std::vector<int> final_cols_;
  std::vector<float> final_vals_;
  int64_t final_nnz_ = 0;
};

}  // namespace skipnode

#endif  // SKIPNODE_SPARSE_CSR_BUILDER_H_
