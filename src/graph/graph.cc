// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/graph.h"

#include <utility>

#include "base/check.h"

namespace skipnode {

Graph::Graph(std::string name, int num_nodes, EdgeList edges, Matrix features,
             std::vector<int> labels, int num_classes)
    : name_(std::move(name)),
      num_nodes_(num_nodes),
      num_edges_(static_cast<int64_t>(edges.size())),
      edges_(std::move(edges)),
      features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  SKIPNODE_CHECK(num_nodes_ >= 0);
  SKIPNODE_CHECK(features_.rows() == num_nodes_);
  for (const auto& [u, v] : edges_) {
    SKIPNODE_CHECK(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_);
    SKIPNODE_CHECK(u != v);
  }
  if (!labels_.empty()) {
    SKIPNODE_CHECK(static_cast<int>(labels_.size()) == num_nodes_);
    for (const int label : labels_) {
      SKIPNODE_CHECK(label >= 0 && label < num_classes_);
    }
  }
  degrees_ = Degrees(num_nodes_, edges_);
}

Graph::Graph(std::string name, int num_nodes,
             std::shared_ptr<const CsrMatrix> normalized_adjacency,
             std::vector<int> degrees, int64_t num_undirected_edges,
             Matrix features, std::vector<int> labels, int num_classes)
    : name_(std::move(name)),
      num_nodes_(num_nodes),
      num_edges_(num_undirected_edges),
      features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes),
      degrees_(std::move(degrees)),
      normalized_adjacency_(std::move(normalized_adjacency)) {
  SKIPNODE_CHECK(num_nodes_ >= 0);
  SKIPNODE_CHECK(num_edges_ >= 0);
  SKIPNODE_CHECK(normalized_adjacency_ != nullptr);
  SKIPNODE_CHECK(normalized_adjacency_->rows() == num_nodes_);
  SKIPNODE_CHECK(normalized_adjacency_->cols() == num_nodes_);
  SKIPNODE_CHECK(static_cast<int>(degrees_.size()) == num_nodes_);
  SKIPNODE_CHECK(features_.rows() == num_nodes_);
  if (!labels_.empty()) {
    SKIPNODE_CHECK(static_cast<int>(labels_.size()) == num_nodes_);
    for (const int label : labels_) {
      SKIPNODE_CHECK(label >= 0 && label < num_classes_);
    }
  }
}

void Graph::set_years(std::vector<int> years) {
  SKIPNODE_CHECK(static_cast<int>(years.size()) == num_nodes_);
  years_ = std::move(years);
}

std::shared_ptr<const CsrMatrix> Graph::normalized_adjacency() const {
  if (normalized_adjacency_ == nullptr) {
    normalized_adjacency_ = std::make_shared<const CsrMatrix>(
        NormalizedAdjacency(num_nodes_, edges_));
    // Duplicates merge in A_hat, so its pattern would disagree with
    // num_edges().
    SKIPNODE_CHECK_MSG(
        normalized_adjacency_->nnz() == num_nodes_ + 2 * num_edges_,
        "Graph '%s': an edge is listed twice", name_.c_str());
    EdgeList().swap(edges_);
  }
  return normalized_adjacency_;
}

const std::vector<double>& Graph::degree_weights() const {
  if (!degree_weights_computed_) {
    degree_weights_.assign(degrees_.begin(), degrees_.end());
    degree_weights_computed_ = true;
  }
  return degree_weights_;
}

const std::vector<int>& Graph::components() const {
  if (!components_computed_) {
    components_ = ConnectedComponents(*normalized_adjacency());
    components_computed_ = true;
  }
  return components_;
}

double Graph::EdgeHomophily() const {
  SKIPNODE_CHECK(has_labels());
  int64_t same = 0;
  int64_t total = 0;
  ForEachEdge(*normalized_adjacency(), [&](int u, int v) {
    ++total;
    if (labels_[u] == labels_[v]) ++same;
  });
  if (total == 0) return 0.0;
  return static_cast<double>(same) / static_cast<double>(total);
}

int64_t Graph::MemoryFootprintBytes() const {
  int64_t bytes = 0;
  if (normalized_adjacency_ != nullptr) {
    bytes += normalized_adjacency_->MemoryBytes();
  }
  bytes += static_cast<int64_t>(features_.rows()) * features_.cols() *
           static_cast<int64_t>(sizeof(float));
  bytes += static_cast<int64_t>(edges_.size()) * sizeof(std::pair<int, int>);
  bytes += static_cast<int64_t>(labels_.size()) * sizeof(int);
  bytes += static_cast<int64_t>(years_.size()) * sizeof(int);
  bytes += static_cast<int64_t>(degrees_.size()) * sizeof(int);
  bytes += static_cast<int64_t>(degree_weights_.size()) * sizeof(double);
  bytes += static_cast<int64_t>(components_.size()) * sizeof(int);
  return bytes;
}

}  // namespace skipnode
