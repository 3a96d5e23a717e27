// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include "base/check.h"

namespace skipnode {

EdgeList ErdosRenyi(int num_nodes, double p, Rng& rng) {
  SKIPNODE_CHECK(p >= 0.0 && p <= 1.0);
  EdgeList edges;
  for (int u = 0; u < num_nodes; ++u) {
    for (int v = u + 1; v < num_nodes; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return edges;
}

CdfTable::CdfTable(std::vector<double> cdf) : cdf_(std::move(cdf)) {
  const size_t n = cdf_.size();
  if (n == 0) return;
  SKIPNODE_CHECK(n <= static_cast<size_t>(std::numeric_limits<int>::max()));
  SKIPNODE_CHECK(cdf_.back() > 0.0);
  width_ = cdf_.back() / static_cast<double>(n);
  // One merge walk: the bounds j·w rise with j, so each guide entry resumes
  // the scan where the previous one stopped.
  guide_.resize(n + 1);
  size_t i = 0;
  for (size_t j = 0; j <= n; ++j) {
    const double bound = static_cast<double>(j) * width_;
    while (i < n && cdf_[i] <= bound) ++i;
    guide_[j] = static_cast<int>(i);
  }
}

int CdfTable::Find(double target) const {
  const size_t n = cdf_.size();
  const double bucket = target / width_;
  size_t j = bucket >= static_cast<double>(n) ? n
             : bucket > 0.0                   ? static_cast<size_t>(bucket)
                                              : 0;
  // floor(x / w) can round up past x's bucket; the bound test is the build's
  // own expression, so after it j·w <= x and guide[j] <= upper_bound(x).
  while (j > 0 && static_cast<double>(j) * width_ > target) --j;
  size_t i = static_cast<size_t>(guide_[j]);
  while (i < n && cdf_[i] <= target) ++i;
  return static_cast<int>(std::min(i, n - 1));
}

DcSbmPlan PlanDcSbm(const PlantedPartitionConfig& config, Rng& rng) {
  SKIPNODE_CHECK(config.num_nodes > 0);
  SKIPNODE_CHECK(config.num_classes > 0);
  SKIPNODE_CHECK(config.homophily >= 0.0 && config.homophily <= 1.0);
  const int n = config.num_nodes;
  const int k = config.num_classes;

  DcSbmPlan plan;
  // Balanced classes, randomly assigned.
  plan.labels.resize(n);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  for (int i = 0; i < n; ++i) plan.labels[order[i]] = i % k;

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
  plan.class_members.resize(k);
  for (int i = 0; i < n; ++i) {
    plan.class_members[plan.labels[i]].push_back(i);
  }
  std::vector<double> cdf(n);
  double running = 0.0;
  for (int i = 0; i < n; ++i) {
    running += theta[i];
    cdf[i] = running;
  }
  plan.global = CdfTable(std::move(cdf));
  plan.by_class.reserve(k);
  for (int c = 0; c < k; ++c) {
    std::vector<double> class_cdf;
    class_cdf.reserve(plan.class_members[c].size());
    running = 0.0;
    for (const int i : plan.class_members[c]) {
      running += theta[i];
      class_cdf.push_back(running);
    }
    plan.by_class.emplace_back(std::move(class_cdf));
  }
  return plan;
}

namespace {

// The DC-SBM attempt loop both generators share. Each attempt draws u
// globally by propensity, then v within u's class with probability
// `homophily`, otherwise globally, resampling (not skipping) same-class
// candidates so the realised homophily matches the target instead of
// drifting upward. Self-pairs are rejected; every other pair goes to
// keep(u, v) with u < v, which returns whether it counts toward num_edges.
template <typename Keep>
void DrawEdges(const PlantedPartitionConfig& config, const DcSbmPlan& plan,
               Rng& rng, Keep keep) {
  const int k = config.num_classes;
  const int64_t max_attempts =
      static_cast<int64_t>(config.num_edges) * 30 + 1000;
  int64_t kept = 0;
  for (int64_t attempts = 0; kept < config.num_edges && attempts < max_attempts;
       ++attempts) {
    const int u = plan.global.Sample(rng);
    int v;
    if (rng.Bernoulli(config.homophily)) {
      const int c = plan.labels[u];
      v = plan.class_members[c][plan.by_class[c].Sample(rng)];
    } else {
      v = -1;
      for (int retry = 0; retry < 64; ++retry) {
        const int candidate = plan.global.Sample(rng);
        if (k == 1 || plan.labels[candidate] != plan.labels[u]) {
          v = candidate;
          break;
        }
      }
      if (v < 0) continue;
    }
    if (u == v) continue;
    if (keep(std::min(u, v), std::max(u, v))) ++kept;
  }
}

}  // namespace

PlantedPartitionGraph PlantedPartition(const PlantedPartitionConfig& config,
                                       Rng& rng) {
  DcSbmPlan plan = PlanDcSbm(config, rng);
  PlantedPartitionGraph graph;
  graph.edges.reserve(config.num_edges);
  std::set<std::pair<int, int>> seen;
  DrawEdges(config, plan, rng, [&](int u, int v) {
    if (!seen.insert({u, v}).second) return false;
    graph.edges.emplace_back(u, v);
    return true;
  });
  graph.labels = std::move(plan.labels);
  return graph;
}

EdgeList DrawDcSbmEdges(const PlantedPartitionConfig& config,
                        const DcSbmPlan& plan, Rng& rng) {
  EdgeList edges;
  edges.reserve(config.num_edges);
  DrawEdges(config, plan, rng, [&](int u, int v) {
    edges.emplace_back(u, v);
    return true;
  });
  return edges;
}

Matrix MakeClassFeatures(const std::vector<int>& labels, int num_classes,
                         const FeatureConfig& config, Rng& rng) {
  const int n = static_cast<int>(labels.size());
  SKIPNODE_CHECK(config.dim > 0);
  SKIPNODE_CHECK(config.words_per_node > 0);
  SKIPNODE_CHECK(config.signal >= 0.0 && config.signal <= 1.0);

  // Each class owns a random topic subset of the vocabulary.
  const int topic_size = std::max(
      2, static_cast<int>(config.topic_fraction * config.dim));
  std::vector<std::vector<int>> topics(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    topics[c] = rng.SampleWithoutReplacement(config.dim, topic_size);
  }

  Matrix features(n, config.dim);
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& topic = topics[labels[i]];
    for (int w = 0; w < config.words_per_node; ++w) {
      int word;
      if (rng.Bernoulli(config.signal)) {
        word = topic[rng.UniformInt(topic.size())];
      } else {
        word = static_cast<int>(rng.UniformInt(config.dim));
      }
      features(i, word) = 1.0f;
    }
  }
  if (config.row_normalize) {
    for (int i = 0; i < n; ++i) {
      float* row = features.row(i);
      double total = 0.0;
      for (int j = 0; j < config.dim; ++j) total += row[j] * row[j];
      if (total > 0.0) {
        const float inv = static_cast<float>(1.0 / std::sqrt(total));
        for (int j = 0; j < config.dim; ++j) row[j] *= inv;
      }
    }
  }
  return features;
}

}  // namespace skipnode
