// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

namespace skipnode {
namespace {

// Strips a trailing '\r' (CRLF input) so Windows-authored files parse.
void StripCarriageReturn(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

// True iff only whitespace remains in `tokens` — rejects lines with extra
// columns or a partially-consumed token (e.g. "1 2 3", "1 2.5").
bool RemainderIsBlank(std::istringstream& tokens) {
  tokens >> std::ws;
  return tokens.eof();
}

}  // namespace

bool LoadEdgeList(const std::string& path, EdgeList* edges, int* num_nodes,
                  int min_num_nodes) {
  std::ifstream in(path);
  if (!in) return false;
  edges->clear();
  // INT_MAX is no valid id: the node count max_id + 1 must fit an int.
  constexpr int kMaxId = std::numeric_limits<int>::max() - 1;
  int max_id = min_num_nodes - 1;
  std::set<std::pair<int, int>> seen;
  std::string line;
  while (std::getline(in, line)) {
    StripCarriageReturn(&line);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    int u, v;
    // operator>> sets failbit on non-numeric tokens and on values that
    // overflow int, so both malformations land on the same return.
    if (!(tokens >> u >> v) || !RemainderIsBlank(tokens)) return false;
    if (u < 0 || v < 0 || u > kMaxId || v > kMaxId) return false;
    max_id = std::max({max_id, u, v});
    if (u == v) continue;  // Self-loops are re-added by normalisation.
    const auto key = std::minmax(u, v);
    if (!seen.insert({key.first, key.second}).second) continue;
    edges->emplace_back(key.first, key.second);
  }
  *num_nodes = max_id + 1;
  return true;
}

bool SaveEdgeList(const std::string& path, const EdgeList& edges) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& [u, v] : edges) out << u << ' ' << v << '\n';
  return static_cast<bool>(out);
}

bool LoadLabels(const std::string& path, std::vector<int>* labels,
                int num_classes) {
  std::ifstream in(path);
  if (!in) return false;
  labels->clear();
  std::string line;
  while (std::getline(in, line)) {
    StripCarriageReturn(&line);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    int label;
    if (!(tokens >> label) || !RemainderIsBlank(tokens)) return false;
    if (label < 0) return false;
    if (num_classes >= 0 && label >= num_classes) return false;
    labels->push_back(label);
  }
  return true;
}

bool SaveLabels(const std::string& path, const std::vector<int>& labels) {
  std::ofstream out(path);
  if (!out) return false;
  for (const int label : labels) out << label << '\n';
  return static_cast<bool>(out);
}

bool LoadMatrixCsv(const std::string& path, Matrix* matrix) {
  std::ifstream in(path);
  if (!in) return false;
  std::vector<float> values;
  int rows = 0;
  int cols = -1;
  std::string line;
  while (std::getline(in, line)) {
    StripCarriageReturn(&line);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream cells(line);
    std::string cell;
    int this_cols = 0;
    while (std::getline(cells, cell, ',')) {
      char* end = nullptr;
      const float value = std::strtof(cell.c_str(), &end);
      if (end == cell.c_str()) return false;  // Not a number.
      while (*end == ' ' || *end == '\t') ++end;
      if (*end != '\0') return false;  // Trailing garbage ("1.5abc").
      if (!std::isfinite(value)) return false;  // "nan"/"inf" or overflow.
      values.push_back(value);
      ++this_cols;
    }
    if (this_cols == 0) return false;
    if (cols < 0) {
      cols = this_cols;
    } else if (cols != this_cols) {
      return false;  // Ragged rows.
    }
    ++rows;
  }
  if (rows == 0) return false;
  *matrix = Matrix(rows, cols, std::move(values));
  return true;
}

bool SaveMatrixCsv(const std::string& path, const Matrix& matrix) {
  std::ofstream out(path);
  if (!out) return false;
  // max_digits10 (9) makes the decimal text round-trip every float exactly,
  // so a checkpoint save/load is bitwise lossless (frozen_model_test).
  out << std::setprecision(std::numeric_limits<float>::max_digits10);
  for (int r = 0; r < matrix.rows(); ++r) {
    for (int c = 0; c < matrix.cols(); ++c) {
      if (c > 0) out << ',';
      out << matrix(r, c);
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool LoadGraph(const std::string& name, const std::string& edge_path,
               const std::string& feature_csv_path,
               const std::string& label_path, std::unique_ptr<Graph>* graph) {
  EdgeList edges;
  int num_nodes = 0;
  if (!LoadEdgeList(edge_path, &edges, &num_nodes)) return false;

  Matrix features;
  if (!LoadMatrixCsv(feature_csv_path, &features)) return false;
  if (features.rows() < num_nodes) return false;
  num_nodes = features.rows();  // Features may cover isolated tail nodes.

  std::vector<int> labels;
  int num_classes = 0;
  if (!label_path.empty()) {
    if (!LoadLabels(label_path, &labels)) return false;
    if (static_cast<int>(labels.size()) != num_nodes) return false;
    for (const int label : labels) {
      // A label past the node count would claim more classes than nodes.
      if (label < 0 || label >= num_nodes) return false;
      num_classes = std::max(num_classes, label + 1);
    }
  }
  *graph = std::make_unique<Graph>(name, num_nodes, std::move(edges),
                                   std::move(features), std::move(labels),
                                   num_classes);
  return true;
}

}  // namespace skipnode
