// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Plain-text I/O so users can bring their own graphs (and export results).
// Formats are deliberately simple:
//   * edge list:   one "u v" pair per line, 0-based node ids, '#' comments;
//   * labels:      one integer per line, row i = node i;
//   * matrix CSV:  comma-separated floats, one row per line.
// All loaders return false on malformed input instead of aborting (I/O
// errors are environmental, not programming errors). Malformed means:
// ragged rows, non-numeric or partially-numeric tokens ("1.5abc"), extra
// columns, integer overflow, negative node ids / labels, labels beyond a
// claimed class count, and non-finite CSV values. CRLF line endings are
// tolerated.

#ifndef SKIPNODE_GRAPH_IO_H_
#define SKIPNODE_GRAPH_IO_H_

#include <string>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace skipnode {

// Reads an undirected edge list. Self-loops and duplicate edges are
// dropped (the normalisation adds self-loops itself). `num_nodes` is
// inferred as max id + 1 unless `min_num_nodes` is larger; an id of INT_MAX
// fails the load, since that count would not fit an int.
bool LoadEdgeList(const std::string& path, EdgeList* edges, int* num_nodes,
                  int min_num_nodes = 0);

// Writes one "u v" line per undirected edge.
bool SaveEdgeList(const std::string& path, const EdgeList& edges);

// Reads per-node integer labels (one per line, each >= 0). When
// `num_classes` is non-negative it is the claimed class count and any label
// >= num_classes fails the load.
bool LoadLabels(const std::string& path, std::vector<int>* labels,
                int num_classes = -1);

bool SaveLabels(const std::string& path, const std::vector<int>& labels);

// Reads a dense float matrix from CSV; every row must have the same arity.
bool LoadMatrixCsv(const std::string& path, Matrix* matrix);

bool SaveMatrixCsv(const std::string& path, const Matrix& matrix);

// Convenience: assembles a Graph from the three files above. The label file
// may be empty-string for unlabeled graphs (num_classes inferred as
// max label + 1 otherwise). Returns false on any load failure, shape
// mismatch, or a label >= the node count (more classes than nodes).
bool LoadGraph(const std::string& name, const std::string& edge_path,
               const std::string& feature_csv_path,
               const std::string& label_path, std::unique_ptr<Graph>* graph);

}  // namespace skipnode

#endif  // SKIPNODE_GRAPH_IO_H_
