// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Random-graph and random-feature generators. The Erdos-Renyi generator
// reproduces the paper's Figure 4 setup; the degree-corrected planted
// partition generator plus class-conditional bag-of-words features produce
// the synthetic stand-ins for the paper's benchmark datasets (see DESIGN.md
// section 1 for the substitution rationale).

#ifndef SKIPNODE_GRAPH_GENERATORS_H_
#define SKIPNODE_GRAPH_GENERATORS_H_

#include <vector>

#include "base/rng.h"
#include "sparse/graph_ops.h"
#include "tensor/matrix.h"

namespace skipnode {

// G(n, p): every unordered pair is an edge independently with probability p.
EdgeList ErdosRenyi(int num_nodes, double p, Rng& rng);

// Degree-corrected planted-partition generator.
struct PlantedPartitionConfig {
  int num_nodes = 0;
  int num_classes = 2;
  // Expected number of undirected edges to draw (duplicates collapse, so the
  // realised count is slightly lower on dense configs).
  int num_edges = 0;
  // Probability that a drawn edge connects two nodes of the same class
  // (edge homophily target).
  double homophily = 0.8;
  // Degree propensity theta_i ~ U(0,1)^{-1/power_law} capped at
  // max_propensity; power_law <= 0 disables degree correction.
  double power_law = 2.5;
  double max_propensity = 10.0;
};

struct PlantedPartitionGraph {
  EdgeList edges;
  std::vector<int> labels;
};

// Draws a graph with the requested size, class structure, homophily, and a
// heavy-ish-tailed degree distribution (the regime in which the paper's
// biased SkipNode sampler is motivated).
PlantedPartitionGraph PlantedPartition(const PlantedPartitionConfig& config,
                                       Rng& rng);

// Inverse-CDF sampler over a cumulative-weight table, with an exact O(1)
// guide-table search (Chen & Asau's "indexed search"; DESIGN §13). With n
// entries, total T and bucket width w = T / n, guide[j] is the first index
// whose cumulative weight exceeds the bound j·w, for j in [0, n]. A lookup
// starts from the bucket floor(x / w), steps down while its bound (the same
// j·w expression the build used) exceeds x, then scans up with
// upper_bound's own `<=` test — so it returns upper_bound's index for every
// target, just without the binary search.
class CdfTable {
 public:
  CdfTable() = default;
  // `cdf` must be non-decreasing with a positive last entry (the total);
  // an empty table may be built but never searched.
  explicit CdfTable(std::vector<double> cdf);

  // min(upper_bound(cdf, target) - cdf.begin(), cdf.size() - 1), for
  // target >= 0.
  int Find(double target) const;
  // Draws an index with probability proportional to its weight: one
  // Uniform() draw, scaled by the total.
  int Sample(Rng& rng) const { return Find(rng.Uniform() * cdf_.back()); }

  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
  std::vector<int> guide_;
  double width_ = 0.0;
};

// Sampling state for a DC-SBM draw (DESIGN §13): balanced random labels, the
// degree propensities as one global and one per-class CdfTable, and each
// class's member list (the per-class table indexes into it).
struct DcSbmPlan {
  std::vector<int> labels;
  std::vector<std::vector<int>> class_members;
  CdfTable global;
  std::vector<CdfTable> by_class;
};

DcSbmPlan PlanDcSbm(const PlantedPartitionConfig& config, Rng& rng);

// Draws the plan's degree-corrected edges from `rng`: (u, v) with u < v for
// every accepted draw, in draw order, until config.num_edges are accepted
// or the attempt budget runs out. Duplicates are NOT filtered —
// NormalizedAdjacency collapses them, where PlantedPartition keeps a
// std::set — so the list holds at most num_edges pairs (8 bytes each).
EdgeList DrawDcSbmEdges(const PlantedPartitionConfig& config,
                        const DcSbmPlan& plan, Rng& rng);

// Class-conditional sparse binary "bag-of-words" features.
struct FeatureConfig {
  int dim = 128;
  // Active words per node.
  int words_per_node = 12;
  // Probability an active word is drawn from the node's class topic set
  // (rest are uniform noise). Higher = features more label-informative.
  double signal = 0.7;
  // Fraction of the vocabulary owned by each class topic set.
  double topic_fraction = 0.12;
  // L2-normalise rows (standard GCN preprocessing).
  bool row_normalize = true;
};

Matrix MakeClassFeatures(const std::vector<int>& labels, int num_classes,
                         const FeatureConfig& config, Rng& rng);

}  // namespace skipnode

#endif  // SKIPNODE_GRAPH_GENERATORS_H_
