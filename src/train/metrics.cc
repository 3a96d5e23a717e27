// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/metrics.h"

#include <algorithm>

#include "base/check.h"
#include "tensor/ops.h"

namespace skipnode {

double Accuracy(const Matrix& logits, const std::vector<int>& labels,
                const std::vector<int>& nodes) {
  SKIPNODE_CHECK(!nodes.empty());
  SKIPNODE_CHECK(static_cast<int>(labels.size()) == logits.rows());
  int correct = 0;
  for (const int node : nodes) {
    if (RowArgmax(logits, node) == labels[node]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

double MacroF1(const Matrix& logits, const std::vector<int>& labels,
               const std::vector<int>& nodes, int num_classes) {
  SKIPNODE_CHECK(!nodes.empty());
  SKIPNODE_CHECK(num_classes > 0);
  std::vector<int> true_positive(num_classes, 0);
  std::vector<int> predicted(num_classes, 0);
  std::vector<int> actual(num_classes, 0);
  for (const int node : nodes) {
    const int best = RowArgmax(logits, node);
    predicted[best] += 1;
    actual[labels[node]] += 1;
    if (best == labels[node]) true_positive[best] += 1;
  }
  double f1_total = 0.0;
  int classes_present = 0;
  for (int c = 0; c < num_classes; ++c) {
    if (actual[c] == 0) continue;  // Class absent from this node set.
    ++classes_present;
    const double denominator = predicted[c] + actual[c];
    // F1 = 2 TP / (P + A); zero when the class is never predicted right.
    f1_total += denominator > 0 ? 2.0 * true_positive[c] / denominator : 0.0;
  }
  SKIPNODE_CHECK(classes_present > 0);
  return f1_total / classes_present;
}

double HitsAtK(const std::vector<float>& positive_scores,
               const std::vector<float>& negative_scores, int k) {
  SKIPNODE_CHECK(k > 0);
  SKIPNODE_CHECK(!positive_scores.empty());
  if (static_cast<int>(negative_scores.size()) < k) return 1.0;
  std::vector<float> negatives = negative_scores;
  std::nth_element(negatives.begin(), negatives.begin() + (k - 1),
                   negatives.end(), std::greater<float>());
  const float threshold = negatives[k - 1];
  int hits = 0;
  for (const float score : positive_scores) {
    if (score > threshold) ++hits;
  }
  return static_cast<double>(hits) /
         static_cast<double>(positive_scores.size());
}

}  // namespace skipnode
