// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Test-only COO convenience over CsrBuilder. Production code streams
// entries through CsrBuilder directly (DESIGN §13); tests that hold tiny
// triplet lists build through this helper instead — it replays the retired
// CsrMatrix::FromCoo shim exactly (count, fill in list order, Build), so
// duplicate coordinates still sum in per-row insertion order.

#ifndef SKIPNODE_TESTS_TESTING_COO_MATRIX_H_
#define SKIPNODE_TESTS_TESTING_COO_MATRIX_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/check.h"
#include "sparse/csr_builder.h"
#include "sparse/csr_matrix.h"

namespace skipnode {
namespace testing {

inline CsrMatrix CsrFromCoo(int rows, int cols,
                            const std::vector<std::pair<int, int>>& coords,
                            const std::vector<float>& values) {
  SKIPNODE_CHECK(coords.size() == values.size());
  CsrBuilder builder(rows, cols);
  for (const auto& [r, c] : coords) {
    SKIPNODE_CHECK(r >= 0 && r < rows && c >= 0 && c < cols);
    builder.CountEntry(r);
  }
  builder.FinishCounting();
  for (size_t i = 0; i < coords.size(); ++i) {
    builder.AddEntry(coords[i].first, coords[i].second, values[i]);
  }
  return builder.Build();
}

// The retired COO-era GCN normalisation, reimplemented verbatim as the
// reference every A_hat build is pinned against: symmetric-entry degree
// counting (duplicates counted), +1 for the self-loop, inv_sqrt in float,
// entries streamed edges-then-loops through a COO list. Nodes outside
// `keep_node` (when given) get no self-loop; `edges` must then list only
// edges between kept nodes.
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
