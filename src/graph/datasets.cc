// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/datasets.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <utility>

#include "base/check.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/telemetry.h"
#include "graph/generators.h"
#include "sparse/csr_builder.h"

namespace skipnode {

const std::vector<DatasetSpec>& AllDatasetSpecs() {
  // Sizes follow DESIGN.md section 5: homophilic citation stand-ins at paper
  // scale (Pubmed scaled down), heterophilic web stand-ins, and scaled-down
  // OGB stand-ins. Heterophilic graphs get stronger feature signal: there the
  // label lives in the features, not the neighbourhood, which is exactly why
  // vanilla GCN underperforms on them.
  static const std::vector<DatasetSpec>* const kSpecs =
      new std::vector<DatasetSpec>{
          {"cora_like", 2708, 5429, 7, 128, 0.81, 0.62, 12, 2.5, false},
          {"citeseer_like", 3327, 4732, 6, 128, 0.74, 0.62, 12, 2.5, false},
          {"pubmed_like", 4000, 9000, 3, 96, 0.80, 0.60, 12, 2.5, false},
          {"chameleon_like", 2277, 18000, 5, 128, 0.23, 0.55, 10, 2.0, false},
          {"cornell_like", 183, 295, 5, 64, 0.13, 0.70, 10, 2.5, false},
          {"texas_like", 183, 309, 5, 64, 0.11, 0.70, 10, 2.5, false},
          {"wisconsin_like", 251, 499, 5, 64, 0.20, 0.70, 10, 2.5, false},
          {"arxiv_like", 8000, 50000, 40, 128, 0.65, 0.75, 14, 2.2, true},
          {"ppa_like", 6000, 120000, 8, 32, 0.90, 0.30, 8, 2.0, false},
      };
  return *kSpecs;
}

const DatasetSpec& FindDatasetSpec(const std::string& name) {
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    if (spec.name == name) return spec;
  }
  SKIPNODE_CHECK_MSG(false, "unknown dataset '%s'", name.c_str());
  __builtin_unreachable();
}

namespace {

// Synthetic publication years: ~70% of nodes <= 2017 (train), ~10% 2018
// (validation), ~20% >= 2019 (test), mirroring the ogbn-arxiv protocol.
std::vector<int> DrawYears(int n, Rng& rng) {
  std::vector<int> years(n);
  for (int i = 0; i < n; ++i) {
    const double u = rng.Uniform();
    if (u < 0.70) {
      years[i] = 2010 + static_cast<int>(rng.UniformInt(8));  // 2010-2017
    } else if (u < 0.80) {
      years[i] = 2018;
    } else {
      years[i] = 2019 + static_cast<int>(rng.UniformInt(2));  // 2019-2020
    }
  }
  return years;
}

}  // namespace

Graph BuildDataset(const DatasetSpec& spec, double scale, uint64_t seed) {
  SKIPNODE_CHECK(scale > 0.0 && scale <= 1.0);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);

  const int n = std::max(spec.num_classes * 8,
                         static_cast<int>(std::lround(spec.num_nodes * scale)));
  const int e = std::max(n, static_cast<int>(std::lround(
                                spec.num_edges * scale)));

  PlantedPartitionConfig graph_config;
  graph_config.num_nodes = n;
  graph_config.num_classes = spec.num_classes;
  graph_config.num_edges = e;
  graph_config.homophily = spec.homophily;
  graph_config.power_law = spec.power_law;
  PlantedPartitionGraph generated = PlantedPartition(graph_config, rng);

  FeatureConfig feature_config;
  feature_config.dim = spec.feature_dim;
  feature_config.words_per_node = spec.words_per_node;
  feature_config.signal = spec.feature_signal;
  Matrix features = MakeClassFeatures(generated.labels, spec.num_classes,
                                      feature_config, rng);

  Graph graph(spec.name, n, std::move(generated.edges), std::move(features),
              std::move(generated.labels), spec.num_classes);

  if (spec.with_years) {
    graph.set_years(DrawYears(n, rng));
  }
  return graph;
}

Graph BuildDatasetByName(const std::string& name, double scale,
                         uint64_t seed) {
  return BuildDataset(FindDatasetSpec(name), scale, seed);
}

bool ParseDatasetRequest(const std::string& spec, DatasetRequest* request) {
  SKIPNODE_CHECK(request != nullptr);
  const size_t at = spec.find('@');
  if (at == std::string::npos) {
    request->name = spec;
    return true;
  }
  const std::string name = spec.substr(0, at);
  const std::string size = spec.substr(at + 1);
  if (name.empty() || size.empty()) return false;
  int64_t multiplier = 1;
  size_t digits = size.size();
  const char last =
      static_cast<char>(std::tolower(static_cast<unsigned char>(size.back())));
  if (last == 'k') {
    multiplier = 1000;
    --digits;
  } else if (last == 'm') {
    multiplier = 1000 * 1000;
    --digits;
  }
  if (digits == 0) return false;
  int64_t value = 0;
  for (size_t i = 0; i < digits; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(size[i]))) return false;
    value = value * 10 + (size[i] - '0');
    // Anything past ~2B nodes is out of int range anyway; stop before the
    // accumulator can overflow.
    if (value > std::numeric_limits<int>::max()) return false;
  }
  value *= multiplier;
  if (value <= 0 || value > std::numeric_limits<int>::max()) return false;
  request->name = name;
  request->nodes = value;
  return true;
}

Graph BuildStreamingDataset(const DatasetSpec& spec,
                            const DatasetRequest& request) {
  SKIPNODE_CHECK(request.scale > 0.0 && request.scale <= 1.0);
  SKIPNODE_CHECK(request.nodes >= 0);
  SKIPNODE_CHECK(request.avg_degree >= 0.0);
  Rng rng(request.seed * 0x9e3779b97f4a7c15ULL + 17);

  int64_t n64 = request.nodes > 0
                    ? request.nodes
                    : static_cast<int64_t>(
                          std::lround(spec.num_nodes * request.scale));
  n64 = std::max<int64_t>(n64, static_cast<int64_t>(spec.num_classes) * 8);
  SKIPNODE_CHECK_MSG(n64 <= std::numeric_limits<int>::max(),
                     "dataset '%s': node count out of int range",
                     spec.name.c_str());
  const int n = static_cast<int>(n64);
  const ScopedTimer timer("graph.stream_build", /*items=*/n);

  const double avg_degree =
      request.avg_degree > 0.0
          ? request.avg_degree
          : 2.0 * spec.num_edges / std::max(1, spec.num_nodes);
  int64_t target_edges =
      static_cast<int64_t>(std::llround(n * avg_degree / 2.0));
  target_edges = std::max<int64_t>(target_edges, n);
  SKIPNODE_CHECK_MSG(target_edges <= std::numeric_limits<int>::max(),
                     "dataset '%s': edge target out of int range",
                     spec.name.c_str());

  PlantedPartitionConfig config;
  config.num_nodes = n;
  config.num_classes = spec.num_classes;
  config.num_edges = static_cast<int>(target_edges);
  config.homophily = spec.homophily;
  config.power_law = spec.power_law;
  const DcSbmPlan plan = PlanDcSbm(config, rng);

  // A+I pattern, streamed twice: count, then fill; duplicates from the
  // set-free edge stream collapse in FinalizePattern.
  CsrBuilder builder(n, n);
  StreamDcSbmEdges(config, plan, [&](int u, int v) {
    builder.CountEntry(u);
    builder.CountEntry(v);
  });
  for (int i = 0; i < n; ++i) builder.CountEntry(i);
  builder.FinishCounting();
  StreamDcSbmEdges(config, plan, [&](int u, int v) {
    builder.AddPatternEntry(u, v);
    builder.AddPatternEntry(v, u);
  });
  for (int i = 0; i < n; ++i) builder.AddPatternEntry(i, i);
  builder.FinalizePattern();

  // Simple-graph degrees from the deduplicated pattern (self-loop excluded);
  // the GCN normalisation then reads the *final* degrees, which is why the
  // weights wait for BuildWithValues.
  std::vector<int> degrees(n);
  int64_t directed_entries = 0;
  for (int i = 0; i < n; ++i) {
    degrees[i] = builder.FinalRowNnz(i) - 1;
    directed_entries += degrees[i];
  }
  const int64_t num_undirected_edges = directed_entries / 2;

  std::vector<float> inv_sqrt(n);
  ParallelFor(
      0, n,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          inv_sqrt[i] = 1.0f / std::sqrt(static_cast<float>(degrees[i] + 1));
        }
      },
      /*min_per_thread=*/1 << 13);
  CsrMatrix a_hat = builder.BuildWithValues(
      [&](int r, int c) { return inv_sqrt[r] * inv_sqrt[c]; });

  FeatureConfig feature_config;
  feature_config.dim = spec.feature_dim;
  feature_config.words_per_node = spec.words_per_node;
  feature_config.signal = spec.feature_signal;
  Matrix features = MakeClassFeatures(plan.labels, spec.num_classes,
                                      feature_config, rng);

  std::vector<int> labels = plan.labels;
  Graph graph(spec.name, n,
              std::make_shared<const CsrMatrix>(std::move(a_hat)),
              std::move(degrees), num_undirected_edges, std::move(features),
              std::move(labels), spec.num_classes);
  if (spec.with_years) {
    graph.set_years(DrawYears(n, rng));
  }
  return graph;
}

namespace {

std::string SpecSummary(const DatasetSpec& spec) {
  return std::to_string(spec.num_nodes) + " nodes / " +
         std::to_string(spec.num_edges) + " edges, " +
         std::to_string(spec.num_classes) + " classes";
}

const DatasetSpec& SynthSpec() {
  // Streaming-only DC-SBM: sized through @SIZE / --nodes / --avg-degree, so
  // the base numbers are just the defaults for a bare "synth". The feature
  // dim is deliberately narrow (32): at streaming scale the adjacency, not
  // the feature matrix, should dominate the resident footprint, which is
  // what lets full-batch training fit the 2x peak-RSS budget (DESIGN §13).
  static const DatasetSpec* const kSpec = new DatasetSpec{
      "synth", 100000, 500000, 10, 32, 0.80, 0.62, 12, 2.5, false};
  return *kSpec;
}

}  // namespace

DatasetRegistry& DatasetRegistry::Global() {
  static DatasetRegistry* const registry = [] {
    auto* r = new DatasetRegistry();
    for (const DatasetSpec& spec : AllDatasetSpecs()) {
      r->Register(spec.name, SpecSummary(spec), [&spec](
                                                    const DatasetRequest& req) {
        // Unmodified sizes keep the legacy edge-list path: bit for bit the
        // graph BuildDatasetByName always produced.
        if (req.nodes == 0 && req.avg_degree == 0.0) {
          return BuildDataset(spec, req.scale, req.seed);
        }
        return BuildStreamingDataset(spec, req);
      });
    }
    r->Register("synth",
                SpecSummary(SynthSpec()) + " (streaming-only)",
                [](const DatasetRequest& req) {
                  return BuildStreamingDataset(SynthSpec(), req);
                });
    return r;
  }();
  return *registry;
}

void DatasetRegistry::Register(std::string name, std::string summary,
                               Factory factory) {
  SKIPNODE_CHECK(!name.empty());
  SKIPNODE_CHECK(factory != nullptr);
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.summary = std::move(summary);
      entry.factory = std::move(factory);
      return;
    }
  }
  entries_.push_back({std::move(name), std::move(summary),
                      std::move(factory)});
}

bool DatasetRegistry::Contains(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return true;
  }
  return false;
}

Graph DatasetRegistry::Build(const DatasetRequest& request) const {
  for (const Entry& entry : entries_) {
    if (entry.name == request.name) return entry.factory(request);
  }
  SKIPNODE_CHECK_MSG(false, "unknown dataset '%s'", request.name.c_str());
  __builtin_unreachable();
}

std::vector<std::pair<std::string, std::string>>
DatasetRegistry::NamesWithSummaries() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.emplace_back(entry.name, entry.summary);
  }
  return out;
}

}  // namespace skipnode
