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

Graph::Graph(std::string name,
             std::shared_ptr<const CsrMatrix> normalized_adjacency,
             Matrix features, std::vector<int> labels, int num_classes)
    : name_(std::move(name)),
      features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes),
      normalized_adjacency_(std::move(normalized_adjacency)) {
  SKIPNODE_CHECK(normalized_adjacency_ != nullptr);
  const CsrMatrix& a_hat = *normalized_adjacency_;
  SKIPNODE_CHECK(a_hat.cols() == a_hat.rows());
  num_nodes_ = a_hat.rows();
  degrees_.resize(static_cast<size_t>(num_nodes_));
  for (int i = 0; i < num_nodes_; ++i) {
    SKIPNODE_CHECK(a_hat.RowNnz(i) >= 1);  // The self-loop.
    degrees_[static_cast<size_t>(i)] = a_hat.RowNnz(i) - 1;
  }
  num_edges_ = (a_hat.nnz() - num_nodes_) / 2;
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
    // The normaliser takes the list over (a moved-from vector is empty) and
    // frees it.
    normalized_adjacency_ = std::make_shared<const CsrMatrix>(
        NormalizedAdjacency(num_nodes_, std::move(edges_)));
    // Repeats collapse in A_hat, so its pattern would disagree with
    // num_edges().
    SKIPNODE_CHECK_MSG(
        normalized_adjacency_->nnz() == num_nodes_ + 2 * num_edges_,
        "Graph '%s': an edge is listed twice", name_.c_str());
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
