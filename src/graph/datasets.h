// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Named synthetic datasets mirroring the paper's Table 2 (see DESIGN.md
// sections 1 and 5 for the substitution rationale). Every dataset is fully
// determined by (name, scale, seed) — or, through the registry, by a
// DatasetRequest that may additionally override the node count and average
// degree ("arxiv_like@169k", "synth@1m"), which switches construction to the
// streaming CSR path (DESIGN §13).

#ifndef SKIPNODE_GRAPH_DATASETS_H_
#define SKIPNODE_GRAPH_DATASETS_H_

#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace skipnode {

// Declarative recipe for one synthetic dataset.
struct DatasetSpec {
  std::string name;
  int num_nodes = 0;
  int num_edges = 0;
  int num_classes = 0;
  int feature_dim = 0;
  double homophily = 0.8;
  // How label-informative the features are (FeatureConfig::signal).
  double feature_signal = 0.7;
  int words_per_node = 12;
  double power_law = 2.5;
  // Whether nodes carry a synthetic publication year (arxiv-like temporal
  // splits).
  bool with_years = false;
};

// Specs for all nine stand-ins: cora_like, citeseer_like, pubmed_like,
// chameleon_like, cornell_like, texas_like, wisconsin_like, arxiv_like,
// ppa_like.
const std::vector<DatasetSpec>& AllDatasetSpecs();

// Returns the spec for `name`; aborts on unknown names.
const DatasetSpec& FindDatasetSpec(const std::string& name);

// Instantiates `spec` scaled by `scale` in node count (edges, and for tiny
// graphs feature dims, scale along; scale <= 1). Deterministic in `seed`.
Graph BuildDataset(const DatasetSpec& spec, double scale, uint64_t seed);

// Convenience: BuildDataset(FindDatasetSpec(name), scale, seed).
Graph BuildDatasetByName(const std::string& name, double scale = 1.0,
                         uint64_t seed = 1);

// A fully-parsed dataset request: the registry key plus build parameters.
// With no size overrides (nodes == 0 and avg_degree == 0) a registered
// classic dataset builds through the legacy edge-list path, bit for bit the
// same graph as BuildDatasetByName(name, scale, seed). Any override — or a
// streaming-only dataset like "synth" — switches to the streaming DC-SBM
// path, which generates straight into a pre-normalised A_hat.
struct DatasetRequest {
  std::string name;
  double scale = 1.0;
  uint64_t seed = 1;
  // Node-count override; 0 keeps the spec's (scaled) size.
  int64_t nodes = 0;
  // Average-degree override; 0 keeps the spec's edge/node ratio.
  double avg_degree = 0.0;
};

// Parses "name" or "name@SIZE" where SIZE is a positive integer with an
// optional k/m multiplier ("169k", "1m", "50000"; case-insensitive). The
// suffix sets request->nodes; scale/seed/avg_degree keep their prior values.
// Returns false (request untouched) on a malformed suffix.
bool ParseDatasetRequest(const std::string& spec, DatasetRequest* request);

// Name -> dataset factory. Replaces the stringly-typed FindDatasetSpec
// dispatch scattered across the CLIs and benches: the nine classic specs and
// the streaming-only "synth" dataset are pre-registered, and every surface
// resolves names (and @SIZE / --nodes / --avg-degree overrides) through
// Build().
class DatasetRegistry {
 public:
  using Factory = std::function<Graph(const DatasetRequest&)>;

  // The process-wide registry with the built-in datasets pre-registered.
  static DatasetRegistry& Global();

  // Registers (or replaces) a named dataset. `summary` is one help line.
  void Register(std::string name, std::string summary, Factory factory);

  bool Contains(const std::string& name) const;
  // Builds request.name's graph; aborts on unknown names (same message as
  // the retired FindDatasetSpec dispatch).
  Graph Build(const DatasetRequest& request) const;
  // Registered names in registration order, with their help summaries.
  std::vector<std::pair<std::string, std::string>> NamesWithSummaries() const;

 private:
  DatasetRegistry() = default;
  struct Entry {
    std::string name;
    std::string summary;
    Factory factory;
  };
  std::vector<Entry> entries_;
};

// Streaming DC-SBM instantiation of `spec` at an explicit size: draws the
// edge list once (repeats included), hands it to NormalizedAdjacency, which
// collapses the repeats, reads the degrees off the collapsed pattern and
// frees the list before its per-row merge, and returns a Graph adopting that
// A_hat. Never materialises a COO vector.
Graph BuildStreamingDataset(const DatasetSpec& spec,
                            const DatasetRequest& request);

}  // namespace skipnode

#endif  // SKIPNODE_GRAPH_DATASETS_H_
