// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Test-only COO references. Production code streams entries through
// CsrBuilder directly (DESIGN §13); tests that hold tiny triplet lists build
// through CsrFromCoo instead. It merges the list in plain loops (ReferenceCsr:
// per row, a stable sort by column over insertion order, then left-to-right
// float sums of repeated coordinates — the retired CsrMatrix::FromCoo
// semantics) and hands the builder sorted rows with distinct columns, so no
// reference leans on the builder's own sort.

#ifndef SKIPNODE_TESTS_TESTING_COO_MATRIX_H_
#define SKIPNODE_TESTS_TESTING_COO_MATRIX_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/check.h"
#include "sparse/csr_builder.h"
#include "sparse/csr_matrix.h"

namespace skipnode {
namespace testing {

struct PlainCsr {
  std::vector<int64_t> row_offsets;
  std::vector<int> col_idx;
  std::vector<float> values;
};

inline PlainCsr ReferenceCsr(int rows, int cols,
                             const std::vector<std::pair<int, int>>& coords,
                             const std::vector<float>& values) {
  SKIPNODE_CHECK(coords.size() == values.size());
  std::vector<std::vector<std::pair<int, float>>> row_entries(
      static_cast<size_t>(rows));
  for (size_t i = 0; i < coords.size(); ++i) {
    const auto [r, c] = coords[i];
    SKIPNODE_CHECK(r >= 0 && r < rows && c >= 0 && c < cols);
    row_entries[static_cast<size_t>(r)].push_back({c, values[i]});
  }
  PlainCsr out;
  out.row_offsets.push_back(0);
  for (std::vector<std::pair<int, float>>& row : row_entries) {
    // Stable, so repeats keep their insertion order.
    std::stable_sort(row.begin(), row.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
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

inline CsrMatrix CsrFromCoo(int rows, int cols,
                            const std::vector<std::pair<int, int>>& coords,
                            const std::vector<float>& values) {
  const PlainCsr merged = ReferenceCsr(rows, cols, coords, values);
  CsrBuilder builder(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int64_t e = merged.row_offsets[static_cast<size_t>(r)];
         e < merged.row_offsets[static_cast<size_t>(r) + 1]; ++e) {
      builder.CountEntry(r);
    }
  }
  builder.FinishCounting();
  builder.BeginRowFill();
  for (int r = 0; r < rows; ++r) {
    const int64_t begin = merged.row_offsets[static_cast<size_t>(r)];
    builder.AddRowEntries(
        r, merged.col_idx.data() + begin, merged.values.data() + begin,
        static_cast<int>(merged.row_offsets[static_cast<size_t>(r) + 1] -
                         begin));
  }
  return builder.Build();
}

// The retired COO-era GCN normalisation, reimplemented verbatim as the
// reference every A_hat build is pinned against: symmetric-entry degree
// counting, +1 for the self-loop, inv_sqrt in float, entries streamed
// edges-then-loops through a COO list. Nodes outside `keep_node` (when
// given) get no self-loop; `edges` must then list only edges between kept
// nodes. `edges` must list each edge once: a repeat would count twice in
// the degrees and sum in A, where NormalizedAdjacency collapses it.
inline CsrMatrix CooReferenceNormalized(
    int n, const std::vector<std::pair<int, int>>& edges,
    const std::vector<bool>* keep_node = nullptr) {
  const auto kept = [&](int i) {
    return keep_node == nullptr || (*keep_node)[static_cast<size_t>(i)];
  };
  std::vector<int64_t> degree(n, 0);
  for (const auto& [u, v] : edges) {
    ++degree[u];
    ++degree[v];
  }
  std::vector<float> inv_sqrt(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    if (kept(i)) {
      inv_sqrt[i] = 1.0f / std::sqrt(static_cast<float>(degree[i] + 1));
    }
  }
  std::vector<std::pair<int, int>> coords;
  std::vector<float> values;
  for (const auto& [u, v] : edges) {
    coords.push_back({u, v});
    values.push_back(inv_sqrt[u] * inv_sqrt[v]);
    coords.push_back({v, u});
    values.push_back(inv_sqrt[v] * inv_sqrt[u]);
  }
  for (int i = 0; i < n; ++i) {
    if (!kept(i)) continue;
    coords.push_back({i, i});
    values.push_back(inv_sqrt[i] * inv_sqrt[i]);
  }
  return CsrFromCoo(n, n, coords, values);
}

}  // namespace testing
}  // namespace skipnode

#endif  // SKIPNODE_TESTS_TESTING_COO_MATRIX_H_
