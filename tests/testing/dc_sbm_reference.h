// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Test-only reference for the DC-SBM generators. Production code looks up
// propensity CDFs through CdfTable's guide table and draws the streamed
// edge list once (DESIGN §13); this header keeps the retired binary-search
// generators verbatim — SampleFromCdf over std::upper_bound, PlantedPartition
// with its own planning, and the replayable PlanDcSbm / StreamDcSbmEdges
// pair — so tests can pin the new code to the same draws, edge for edge.

#ifndef SKIPNODE_TESTS_TESTING_DC_SBM_REFERENCE_H_
#define SKIPNODE_TESTS_TESTING_DC_SBM_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "graph/generators.h"

namespace skipnode {
namespace testing {

// Samples an index from the cumulative-weight table `cdf` (strictly
// increasing, last entry = total mass).
inline int SampleFromCdf(const std::vector<double>& cdf, Rng& rng) {
  const double target = rng.Uniform() * cdf.back();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
  return static_cast<int>(std::min<size_t>(it - cdf.begin(), cdf.size() - 1));
}

inline PlantedPartitionGraph ReferencePlantedPartition(
    const PlantedPartitionConfig& config, Rng& rng) {
  SKIPNODE_CHECK(config.num_nodes > 0);
  SKIPNODE_CHECK(config.num_classes > 0);
  SKIPNODE_CHECK(config.homophily >= 0.0 && config.homophily <= 1.0);
  const int n = config.num_nodes;
  const int k = config.num_classes;

  PlantedPartitionGraph graph;
  // Balanced classes, randomly assigned.
  graph.labels.resize(n);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  for (int i = 0; i < n; ++i) graph.labels[order[i]] = i % k;

  // Degree propensities.
  std::vector<double> theta(n, 1.0);
  if (config.power_law > 0.0) {
    for (int i = 0; i < n; ++i) {
      double u = rng.Uniform();
      while (u <= 1e-12) u = rng.Uniform();
      theta[i] = std::min(std::pow(u, -1.0 / config.power_law),
                          config.max_propensity);
    }
  }

  // Cumulative propensity tables: global and per class.
  std::vector<std::vector<int>> class_members(k);
  for (int i = 0; i < n; ++i) class_members[graph.labels[i]].push_back(i);
  std::vector<double> global_cdf(n);
  double running = 0.0;
  for (int i = 0; i < n; ++i) {
    running += theta[i];
    global_cdf[i] = running;
  }
  std::vector<std::vector<double>> class_cdf(k);
  for (int c = 0; c < k; ++c) {
    running = 0.0;
    class_cdf[c].reserve(class_members[c].size());
    for (const int i : class_members[c]) {
      running += theta[i];
      class_cdf[c].push_back(running);
    }
  }

  std::set<std::pair<int, int>> seen;
  graph.edges.reserve(config.num_edges);
  // Draw edges: pick u globally by propensity; pick v within u's class with
  // probability `homophily`, otherwise globally (rejecting same-class hits to
  // keep the homophily target tight).
  const int max_attempts = config.num_edges * 30 + 1000;
  int attempts = 0;
  while (static_cast<int>(graph.edges.size()) < config.num_edges &&
         attempts < max_attempts) {
    ++attempts;
    const int u = SampleFromCdf(global_cdf, rng);
    int v;
    if (rng.Bernoulli(config.homophily)) {
      const int c = graph.labels[u];
      v = class_members[c][SampleFromCdf(class_cdf[c], rng)];
    } else {
      // Cross-class edge: resample (not skip) same-class candidates, so the
      // realised homophily matches the target instead of drifting upward.
      v = -1;
      for (int retry = 0; retry < 64; ++retry) {
        const int candidate = SampleFromCdf(global_cdf, rng);
        if (k == 1 || graph.labels[candidate] != graph.labels[u]) {
          v = candidate;
          break;
        }
      }
      if (v < 0) continue;
    }
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    if (!seen.insert({key.first, key.second}).second) continue;
    graph.edges.emplace_back(key.first, key.second);
  }
  return graph;
}

struct ReferenceDcSbmPlan {
  std::vector<int> labels;
  std::vector<std::vector<int>> class_members;
  std::vector<double> global_cdf;
  std::vector<std::vector<double>> class_cdf;
  Rng edge_stream_rng;
};

inline ReferenceDcSbmPlan ReferencePlanDcSbm(
    const PlantedPartitionConfig& config, Rng& rng) {
  SKIPNODE_CHECK(config.num_nodes > 0);
  SKIPNODE_CHECK(config.num_classes > 0);
  SKIPNODE_CHECK(config.homophily >= 0.0 && config.homophily <= 1.0);
  const int n = config.num_nodes;
  const int k = config.num_classes;

  ReferenceDcSbmPlan plan;
  // Balanced classes, randomly assigned (same scheme as PlantedPartition).
  plan.labels.resize(n);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  for (int i = 0; i < n; ++i) plan.labels[order[i]] = i % k;

  std::vector<double> theta(n, 1.0);
  if (config.power_law > 0.0) {
    for (int i = 0; i < n; ++i) {
      double u = rng.Uniform();
      while (u <= 1e-12) u = rng.Uniform();
      theta[i] = std::min(std::pow(u, -1.0 / config.power_law),
                          config.max_propensity);
    }
  }

  plan.class_members.resize(k);
  for (int i = 0; i < n; ++i) {
    plan.class_members[plan.labels[i]].push_back(i);
  }
  plan.global_cdf.resize(n);
  double running = 0.0;
  for (int i = 0; i < n; ++i) {
    running += theta[i];
    plan.global_cdf[i] = running;
  }
  plan.class_cdf.resize(k);
  for (int c = 0; c < k; ++c) {
    running = 0.0;
    plan.class_cdf[c].reserve(plan.class_members[c].size());
    for (const int i : plan.class_members[c]) {
      running += theta[i];
      plan.class_cdf[c].push_back(running);
    }
  }

  plan.edge_stream_rng = Rng(rng.Next());
  return plan;
}

inline void ReferenceStreamDcSbmEdges(
    const PlantedPartitionConfig& config, const ReferenceDcSbmPlan& plan,
    const std::function<void(int, int)>& emit) {
  const int k = config.num_classes;
  // Copying the plan's Rng restarts the stream, so every call replays the
  // identical draw sequence — the property both builder passes rely on.
  Rng rng = plan.edge_stream_rng;
  const int64_t max_attempts =
      static_cast<int64_t>(config.num_edges) * 30 + 1000;
  int64_t emitted = 0;
  int64_t attempts = 0;
  // Same acceptance logic as PlantedPartition, minus the std::set: u drawn
  // globally by propensity, v within u's class with probability `homophily`,
  // otherwise cross-class with bounded resampling. Duplicate pairs pass
  // through; the consumer deduplicates.
  while (emitted < config.num_edges && attempts < max_attempts) {
    ++attempts;
    const int u = SampleFromCdf(plan.global_cdf, rng);
    int v;
    if (rng.Bernoulli(config.homophily)) {
      const int c = plan.labels[u];
      v = plan.class_members[c][SampleFromCdf(plan.class_cdf[c], rng)];
    } else {
      v = -1;
      for (int retry = 0; retry < 64; ++retry) {
        const int candidate = SampleFromCdf(plan.global_cdf, rng);
        if (k == 1 || plan.labels[candidate] != plan.labels[u]) {
          v = candidate;
          break;
        }
      }
      if (v < 0) continue;
    }
    if (u == v) continue;
    emit(std::min(u, v), std::max(u, v));
    ++emitted;
  }
}

}  // namespace testing
}  // namespace skipnode

#endif  // SKIPNODE_TESTS_TESTING_DC_SBM_REFERENCE_H_
