// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/splits.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "graph/datasets.h"

namespace skipnode {
namespace {

std::set<int> ToSet(const std::vector<int>& v) {
  return std::set<int>(v.begin(), v.end());
}

bool Disjoint(const std::set<int>& a, const std::set<int>& b) {
  for (const int x : a) {
    if (b.count(x) > 0) return false;
  }
  return true;
}

TEST(PublicSplitTest, CountsAndDisjointness) {
  Graph graph = BuildDatasetByName("cora_like", 0.5, 1);
  Rng rng(1);
  Split split = PublicSplit(graph, 20, 300, 500, rng);

  EXPECT_EQ(split.train.size(), 20u * graph.num_classes());
  EXPECT_EQ(split.val.size(), 300u);
  EXPECT_EQ(split.test.size(), 500u);

  const std::set<int> train = ToSet(split.train);
  const std::set<int> val = ToSet(split.val);
  const std::set<int> test = ToSet(split.test);
  EXPECT_TRUE(Disjoint(train, val));
  EXPECT_TRUE(Disjoint(train, test));
  EXPECT_TRUE(Disjoint(val, test));
}

TEST(PublicSplitTest, TrainIsClassBalanced) {
  Graph graph = BuildDatasetByName("cora_like", 0.5, 2);
  Rng rng(2);
  Split split = PublicSplit(graph, 15, 100, 100, rng);
  std::vector<int> per_class(graph.num_classes(), 0);
  for (const int node : split.train) per_class[graph.labels()[node]] += 1;
  for (const int count : per_class) EXPECT_EQ(count, 15);
}

TEST(PublicSplitTest, ClampsOversizedRequests) {
  Graph graph = BuildDatasetByName("cornell_like", 1.0, 3);  // 183 nodes.
  Rng rng(3);
  Split split = PublicSplit(graph, 10, 1000, 1000, rng);
  EXPECT_LE(static_cast<int>(split.train.size() + split.val.size() +
                             split.test.size()),
            graph.num_nodes());
  EXPECT_FALSE(split.val.empty());
  EXPECT_FALSE(split.test.empty());
}

TEST(RandomSplitTest, FractionsAndStratification) {
  Graph graph = BuildDatasetByName("citeseer_like", 0.5, 4);
  Rng rng(4);
  Split split = RandomSplit(graph, 0.6, 0.2, rng);
  const int n = graph.num_nodes();
  EXPECT_NEAR(static_cast<double>(split.train.size()) / n, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(split.val.size()) / n, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(split.test.size()) / n, 0.2, 0.02);

  // Stratified: every class appears in train.
  std::vector<int> per_class(graph.num_classes(), 0);
  for (const int node : split.train) per_class[graph.labels()[node]] += 1;
  for (const int count : per_class) EXPECT_GT(count, 0);
}

TEST(RandomSplitTest, PartitionsAllNodes) {
  Graph graph = BuildDatasetByName("texas_like", 1.0, 5);
  Rng rng(5);
  Split split = RandomSplit(graph, 0.6, 0.2, rng);
  EXPECT_EQ(static_cast<int>(split.train.size() + split.val.size() +
                             split.test.size()),
            graph.num_nodes());
}

TEST(TemporalSplitTest, SplitsByYear) {
  Graph graph = BuildDatasetByName("arxiv_like", 0.1, 6);
  Split split = TemporalSplit(graph, 2017);
  for (const int node : split.train) EXPECT_LE(graph.years()[node], 2017);
  for (const int node : split.val) EXPECT_EQ(graph.years()[node], 2018);
  for (const int node : split.test) EXPECT_GE(graph.years()[node], 2019);
  EXPECT_EQ(static_cast<int>(split.train.size() + split.val.size() +
                             split.test.size()),
            graph.num_nodes());
}

TEST(LinkSplitTest, PartitionsEdgesAndSamplesNegatives) {
  Graph graph = BuildDatasetByName("ppa_like", 0.05, 7);
  Rng rng(7);
  LinkSplit split = MakeLinkSplit(graph, 0.1, 0.2, 500, rng);

  EXPECT_EQ(static_cast<int>(split.train_edges.size() + split.val_pos.size() +
                             split.test_pos.size()),
            graph.num_edges());
  EXPECT_NEAR(static_cast<double>(split.val_pos.size()) / graph.num_edges(),
              0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(split.test_pos.size()) / graph.num_edges(),
              0.2, 0.01);
  EXPECT_EQ(split.eval_neg.size(), 500u);

  // Negatives are not real edges and contain no duplicates.
  const EdgeList pattern = UndirectedEdges(*graph.normalized_adjacency());
  std::set<std::pair<int, int>> edges(pattern.begin(), pattern.end());
  std::set<std::pair<int, int>> negatives;
  for (auto [u, v] : split.eval_neg) {
    if (u > v) std::swap(u, v);
    EXPECT_EQ(edges.count({u, v}), 0u);
    EXPECT_TRUE(negatives.insert({u, v}).second);
  }
}

}  // namespace
}  // namespace skipnode
