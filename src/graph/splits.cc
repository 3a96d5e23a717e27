// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/splits.h"

#include <algorithm>
#include <set>

#include "base/check.h"

namespace skipnode {

bool TryPublicSplit(const Graph& graph, int per_class, int num_val,
                    int num_test, Rng& rng, Split* out) {
  SKIPNODE_CHECK(graph.has_labels());
  const int n = graph.num_nodes();
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);

  Split& split = *out;
  split = Split();
  std::vector<int> taken_per_class(graph.num_classes(), 0);
  std::vector<int> remainder;
  remainder.reserve(n);
  for (const int node : order) {
    const int label = graph.labels()[node];
    if (taken_per_class[label] < per_class) {
      split.train.push_back(node);
      ++taken_per_class[label];
    } else {
      remainder.push_back(node);
    }
  }
  // Clamp to what the graph can supply; if the remainder cannot cover both
  // pools at the requested sizes, split it evenly so neither ends up empty.
  const int remaining = static_cast<int>(remainder.size());
  int val_count = std::min(num_val, remaining);
  if (remaining - val_count == 0 && remaining >= 2) val_count = remaining / 2;
  split.val.assign(remainder.begin(), remainder.begin() + val_count);
  const int test_count = std::min(num_test, remaining - val_count);
  split.test.assign(remainder.begin() + val_count,
                    remainder.begin() + val_count + test_count);
  return !split.train.empty() && !split.val.empty() && !split.test.empty();
}

Split PublicSplit(const Graph& graph, int per_class, int num_val,
                  int num_test, Rng& rng) {
  Split split;
  const bool filled =
      TryPublicSplit(graph, per_class, num_val, num_test, rng, &split);
  SKIPNODE_CHECK_MSG(filled,
                     "PublicSplit: graph '%s' leaves a train/val/test pool "
                     "empty",
                     graph.name().c_str());
  return split;
}

Split RandomSplit(const Graph& graph, double train_fraction,
                  double val_fraction, Rng& rng) {
  SKIPNODE_CHECK(graph.has_labels());
  SKIPNODE_CHECK(train_fraction > 0.0 && val_fraction >= 0.0);
  SKIPNODE_CHECK(train_fraction + val_fraction < 1.0 + 1e-9);

  // Stratified: split each class with the same fractions so small
  // heterophilic datasets keep every class represented in training.
  std::vector<std::vector<int>> by_class(graph.num_classes());
  for (int i = 0; i < graph.num_nodes(); ++i) {
    by_class[graph.labels()[i]].push_back(i);
  }
  Split split;
  for (std::vector<int>& members : by_class) {
    rng.Shuffle(members);
    const int m = static_cast<int>(members.size());
    const int train_count = std::max(1, static_cast<int>(m * train_fraction));
    const int val_count = std::min(
        m - train_count, std::max(0, static_cast<int>(m * val_fraction)));
    for (int i = 0; i < m; ++i) {
      if (i < train_count) {
        split.train.push_back(members[i]);
      } else if (i < train_count + val_count) {
        split.val.push_back(members[i]);
      } else {
        split.test.push_back(members[i]);
      }
    }
  }
  return split;
}

Split TemporalSplit(const Graph& graph, int last_train_year) {
  SKIPNODE_CHECK(!graph.years().empty());
  Split split;
  for (int i = 0; i < graph.num_nodes(); ++i) {
    const int year = graph.years()[i];
    if (year <= last_train_year) {
      split.train.push_back(i);
    } else if (year == last_train_year + 1) {
      split.val.push_back(i);
    } else {
      split.test.push_back(i);
    }
  }
  SKIPNODE_CHECK(!split.train.empty() && !split.val.empty() &&
                 !split.test.empty());
  return split;
}

LinkSplit MakeLinkSplit(const Graph& graph, double val_fraction,
                        double test_fraction, int num_eval_negatives,
                        Rng& rng) {
  SKIPNODE_CHECK(val_fraction >= 0.0 && test_fraction > 0.0);
  SKIPNODE_CHECK(val_fraction + test_fraction < 1.0);
  const EdgeList edges = UndirectedEdges(*graph.normalized_adjacency());
  const int e = static_cast<int>(edges.size());

  std::vector<int> order(e);
  for (int i = 0; i < e; ++i) order[i] = i;
  rng.Shuffle(order);

  LinkSplit split;
  const int num_val = static_cast<int>(e * val_fraction);
  const int num_test = static_cast<int>(e * test_fraction);
  for (int i = 0; i < e; ++i) {
    const auto& edge = edges[order[i]];
    if (i < num_val) {
      split.val_pos.push_back(edge);
    } else if (i < num_val + num_test) {
      split.test_pos.push_back(edge);
    } else {
      split.train_edges.push_back(edge);
    }
  }

  // Shared ranked-negative pool: uniform non-edges (also excluded from the
  // held-out positives).
  std::set<std::pair<int, int>> known(edges.begin(), edges.end());
  const int n = graph.num_nodes();
  int attempts = 0;
  while (static_cast<int>(split.eval_neg.size()) < num_eval_negatives &&
         attempts < num_eval_negatives * 50) {
    ++attempts;
    int u = static_cast<int>(rng.UniformInt(n));
    int v = static_cast<int>(rng.UniformInt(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (known.count({u, v}) > 0) continue;
    if (!known.insert({u, v}).second) continue;  // Also dedups negatives.
    split.eval_neg.emplace_back(u, v);
  }
  SKIPNODE_CHECK(!split.eval_neg.empty());
  return split;
}

}  // namespace skipnode
