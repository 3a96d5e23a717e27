// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// An attributed, undirected graph: the dataset object every experiment
// consumes. Holds node features, optional labels, optional per-node year
// (for temporal splits), and the GCN-normalised adjacency, whose pattern is
// the graph's one topology.

#ifndef SKIPNODE_GRAPH_GRAPH_H_
#define SKIPNODE_GRAPH_GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "sparse/graph_ops.h"
#include "tensor/matrix.h"

namespace skipnode {

// Immutable after construction. The pattern of normalized_adjacency() is the
// only topology a Graph exposes (DESIGN §13): components(), EdgeHomophily(),
// the over-smoothing metrics, the DropEdge/DropNode resamplers and link
// splits all read it (edge walks go through ForEachEdge / UndirectedEdges in
// sparse/graph_ops.h).
// Two constructors feed it:
//   * from an edge list (loaders, the classic generators): the list is held
//     privately until A_hat is first needed, normalised, then freed. A_hat
//     stays lazy so building a dataset does not pay for it;
//   * from a pre-normalised A_hat (the streaming generator for 100k–1M+
//     node graphs), adopted as is.
class Graph {
 public:
  // `edges` must describe a simple graph: valid node ids and u != v
  // (checked here), and no edge listed twice in either orientation (checked
  // when A_hat is built). Features have num_nodes rows, and labels (if any)
  // are within [0, num_classes).
  Graph(std::string name, int num_nodes, EdgeList edges, Matrix features,
        std::vector<int> labels, int num_classes);

  // Adopts a pre-normalised A_hat (pattern = A+I), its simple-graph degrees,
  // and its undirected edge count.
  Graph(std::string name, int num_nodes,
        std::shared_ptr<const CsrMatrix> normalized_adjacency,
        std::vector<int> degrees, int64_t num_undirected_edges,
        Matrix features, std::vector<int> labels, int num_classes);

  const std::string& name() const { return name_; }
  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(num_edges_); }
  int num_classes() const { return num_classes_; }
  int feature_dim() const { return features_.cols(); }

  const Matrix& features() const { return features_; }
  const std::vector<int>& labels() const { return labels_; }
  bool has_labels() const { return !labels_.empty(); }

  // Per-node publication year, used by the arxiv-like temporal split. Empty
  // unless set_years() was called.
  const std::vector<int>& years() const { return years_; }
  void set_years(std::vector<int> years);

  // Simple-graph degrees (no self-loops).
  const std::vector<int>& degrees() const { return degrees_; }

  // degrees() as doubles, cached: the weight vector SkipNode-B feeds the
  // weighted sampler, built once per graph instead of once per middle layer
  // of every epoch.
  const std::vector<double>& degree_weights() const;

  // Cached A_hat = (D+I)^{-1/2}(A+I)(D+I)^{-1/2} as a shared_ptr so sampled
  // per-epoch variants and the cached one flow through the same SpMM API.
  // Built on first use for edge-list graphs, which then free their list.
  std::shared_ptr<const CsrMatrix> normalized_adjacency() const;

  // Connected component id per node (cached).
  const std::vector<int>& components() const;

  // Fraction of edges whose endpoints share a label (edge homophily).
  // Requires labels.
  double EdgeHomophily() const;

  // Resident bytes of the dataset: A_hat (if built), the edge list (until
  // A_hat is built), features, and the per-node side vectors. The
  // denominator of the bench/scale peak-RSS budget (DESIGN §13).
  int64_t MemoryFootprintBytes() const;

 private:
  std::string name_;
  int num_nodes_;
  int64_t num_edges_;  // Undirected edge count.
  // Construction input of the edge-list constructor; emptied once A_hat is
  // built from it.
  mutable EdgeList edges_;
  Matrix features_;
  std::vector<int> labels_;
  int num_classes_;
  std::vector<int> years_;
  std::vector<int> degrees_;
  mutable std::shared_ptr<const CsrMatrix> normalized_adjacency_;
  mutable std::vector<double> degree_weights_;
  mutable bool degree_weights_computed_ = false;
  mutable std::vector<int> components_;
  mutable bool components_computed_ = false;
};

}  // namespace skipnode

#endif  // SKIPNODE_GRAPH_GRAPH_H_
