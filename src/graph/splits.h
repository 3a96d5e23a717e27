// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Train/validation/test split builders matching the paper's four evaluation
// protocols: public semi-supervised splits (Yang et al. 2016), random
// full-supervised 60/20/20 splits, the ogbn-arxiv temporal split, and
// link-prediction splits with ranked negative evaluation (ogbl-ppa style).

#ifndef SKIPNODE_GRAPH_SPLITS_H_
#define SKIPNODE_GRAPH_SPLITS_H_

#include <vector>

#include "base/rng.h"
#include "graph/graph.h"

namespace skipnode {

// Node-classification split.
struct Split {
  std::vector<int> train;
  std::vector<int> val;
  std::vector<int> test;
};

// Public semi-supervised protocol: `per_class` training nodes per class,
// then `num_val` validation and `num_test` test nodes from the remainder.
// Counts are clamped to what the graph can supply. Fills *out, and returns
// false when a pool is still empty (too few nodes past the per-class
// quota); the Rng draws are the same either way.
bool TryPublicSplit(const Graph& graph, int per_class, int num_val,
                    int num_test, Rng& rng, Split* out);

// TryPublicSplit for graphs known to be large enough; aborts otherwise.
Split PublicSplit(const Graph& graph, int per_class, int num_val,
                  int num_test, Rng& rng);

// Full-supervised protocol: stratified random split by fractions
// (train_fraction + val_fraction <= 1; the rest is test).
Split RandomSplit(const Graph& graph, double train_fraction,
                  double val_fraction, Rng& rng);

// Temporal protocol: train = year <= last_train_year, val = the following
// year, test = anything later. Requires graph.years().
Split TemporalSplit(const Graph& graph, int last_train_year);

// Link-prediction split. Training edges remain in the message-passing graph;
// held-out positives are removed from it. All positives are ranked against a
// shared pool of sampled non-edges (the OGB Hits@K protocol).
struct LinkSplit {
  EdgeList train_edges;  // message passing + positive supervision
  EdgeList val_pos;
  EdgeList test_pos;
  EdgeList eval_neg;     // shared ranked-negative pool
};

LinkSplit MakeLinkSplit(const Graph& graph, double val_fraction,
                        double test_fraction, int num_eval_negatives,
                        Rng& rng);

}  // namespace skipnode

#endif  // SKIPNODE_GRAPH_SPLITS_H_
