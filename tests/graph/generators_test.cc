// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "testing/dc_sbm_reference.h"

namespace skipnode {
namespace {

TEST(ErdosRenyiTest, EdgeCountMatchesExpectation) {
  Rng rng(1);
  const int n = 100;
  const double p = 0.1;
  const EdgeList edges = ErdosRenyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(edges.size()), expected, expected * 0.15);
}

TEST(ErdosRenyiTest, NoSelfLoopsOrDuplicates) {
  Rng rng(2);
  const EdgeList edges = ErdosRenyi(50, 0.3, rng);
  std::set<std::pair<int, int>> seen;
  for (const auto& [u, v] : edges) {
    EXPECT_NE(u, v);
    EXPECT_TRUE(seen.insert(std::minmax(u, v)).second);
  }
}

TEST(ErdosRenyiTest, ExtremeProbabilities) {
  Rng rng(3);
  EXPECT_TRUE(ErdosRenyi(20, 0.0, rng).empty());
  EXPECT_EQ(ErdosRenyi(20, 1.0, rng).size(), 190u);
}

class PlantedPartitionTest : public ::testing::TestWithParam<double> {};

TEST_P(PlantedPartitionTest, HitsHomophilyTarget) {
  const double target = GetParam();
  Rng rng(4);
  PlantedPartitionConfig config;
  config.num_nodes = 800;
  config.num_classes = 4;
  config.num_edges = 3000;
  config.homophily = target;
  const PlantedPartitionGraph g = PlantedPartition(config, rng);

  int same = 0;
  for (const auto& [u, v] : g.edges) {
    if (g.labels[u] == g.labels[v]) ++same;
  }
  const double homophily = static_cast<double>(same) / g.edges.size();
  EXPECT_NEAR(homophily, target, 0.06);
}

INSTANTIATE_TEST_SUITE_P(HomophilySweep, PlantedPartitionTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(PlantedPartitionTest, ClassesAreBalanced) {
  Rng rng(5);
  PlantedPartitionConfig config;
  config.num_nodes = 600;
  config.num_classes = 3;
  config.num_edges = 1500;
  const PlantedPartitionGraph g = PlantedPartition(config, rng);
  std::vector<int> counts(3, 0);
  for (const int label : g.labels) counts[label] += 1;
  for (const int c : counts) EXPECT_EQ(c, 200);
}

TEST(PlantedPartitionTest, ReachesRequestedEdgeCount) {
  Rng rng(6);
  PlantedPartitionConfig config;
  config.num_nodes = 500;
  config.num_edges = 1200;
  config.num_classes = 5;
  const PlantedPartitionGraph g = PlantedPartition(config, rng);
  EXPECT_EQ(g.edges.size(), 1200u);
}

TEST(PlantedPartitionTest, DegreeCorrectionCreatesSkew) {
  // With power-law propensities the max degree should far exceed the mean.
  Rng rng(7);
  PlantedPartitionConfig config;
  config.num_nodes = 500;
  config.num_edges = 2000;
  config.num_classes = 2;
  config.power_law = 2.0;
  const PlantedPartitionGraph g = PlantedPartition(config, rng);
  const std::vector<int> degree = Degrees(config.num_nodes, g.edges);
  const int max_degree = *std::max_element(degree.begin(), degree.end());
  const double mean_degree = 2.0 * g.edges.size() / config.num_nodes;
  EXPECT_GT(max_degree, 3.0 * mean_degree);
}

// --- CdfTable: the guide-table lookup is upper_bound, index for index ----

int UpperBoundIndex(const std::vector<double>& cdf, double target) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
  return static_cast<int>(std::min<size_t>(it - cdf.begin(), cdf.size() - 1));
}

// Every target the exactness argument has to survive: 0, every CDF value and
// every bucket bound j·w with both floating-point neighbours, the total (and
// just past it), and 10^5 draws the way Sample makes them.
std::vector<double> AdversarialTargets(const std::vector<double>& cdf) {
  const double total = cdf.back();
  const double width = total / static_cast<double>(cdf.size());
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> targets = {0.0, total, std::nextafter(total, inf)};
  const auto add_with_neighbours = [&](double x) {
    targets.push_back(std::nextafter(x, 0.0));
    targets.push_back(x);
    targets.push_back(std::nextafter(x, inf));
  };
  for (const double value : cdf) add_with_neighbours(value);
  for (size_t j = 0; j <= cdf.size(); ++j) {
    add_with_neighbours(static_cast<double>(j) * width);
  }
  Rng rng(12);
  for (int draw = 0; draw < 100000; ++draw) {
    targets.push_back(rng.Uniform() * total);
  }
  return targets;
}

void ExpectLookupMatchesUpperBound(const std::vector<double>& cdf) {
  const CdfTable table(cdf);
  int mismatches = 0;
  for (const double target : AdversarialTargets(cdf)) {
    const int expected = UpperBoundIndex(cdf, target);
    const int found = table.Find(target);
    if (found != expected) {
      ADD_FAILURE() << "target " << target << " (n = " << cdf.size()
                    << "): guide table " << found << ", upper_bound "
                    << expected;
      if (++mismatches >= 10) return;
    }
  }
}

std::vector<double> CumulativeSum(const std::vector<double>& weights) {
  std::vector<double> cdf;
  double running = 0.0;
  for (const double w : weights) {
    running += w;
    cdf.push_back(running);
  }
  return cdf;
}

TEST(CdfTableTest, SingleEntry) {
  ExpectLookupMatchesUpperBound({3.5});
  ExpectLookupMatchesUpperBound({1e-300});
}

TEST(CdfTableTest, EveryBucketBoundIsACdfValue) {
  // 1, 2, ..., n: w = 1, so bound j·w is exactly the value cdf[j - 1].
  std::vector<double> cdf(1000);
  for (int i = 0; i < 1000; ++i) cdf[i] = i + 1;
  ExpectLookupMatchesUpperBound(cdf);
}

TEST(CdfTableTest, BoundsOnValuesWithInexactWidth) {
  // cdf[i] = (i + 1)·w with the table's own w = T / n, so each bound equals
  // a CDF value and floor(x / w) rounds up to j for many x just below j·w.
  for (const int n : {3, 997, 4099}) {
    const double total = 1.0;
    const double width = total / n;
    std::vector<double> cdf(n);
    for (int i = 0; i + 1 < n; ++i) {
      cdf[i] = static_cast<double>(i + 1) * width;
    }
    cdf[n - 1] = total;
    ExpectLookupMatchesUpperBound(cdf);
  }
}

TEST(CdfTableTest, RunsOfEqualValues) {
  // Zero weights, leading and in runs of up to six.
  std::vector<double> weights(3, 0.0);
  for (int i = 0; i < 2000; ++i) {
    weights.push_back(i % 7 == 0 ? 1.0 + i % 3 : 0.0);
  }
  ExpectLookupMatchesUpperBound(CumulativeSum(weights));
}

TEST(CdfTableTest, TinyAndHugeWeights) {
  // 1e-12 vanishes against a running 1e6 sum: long runs of equal values,
  // and buckets that hold thousands of entries or none.
  Rng rng(13);
  std::vector<double> weights(5000);
  for (double& w : weights) w = rng.Bernoulli(0.5) ? 1e-12 : 1e6;
  ExpectLookupMatchesUpperBound(CumulativeSum(weights));
  std::vector<double> tiny_first(2000, 1e-12);
  tiny_first.push_back(1e6);
  ExpectLookupMatchesUpperBound(CumulativeSum(tiny_first));
}

TEST(CdfTableTest, PropensityTablesAsPlanDcSbmDrawsThem) {
  for (const double power_law : {0.0, 2.5}) {
    PlantedPartitionConfig config;
    config.num_nodes = 200000;
    config.num_classes = 10;
    config.power_law = power_law;
    Rng rng(14);
    const DcSbmPlan plan = PlanDcSbm(config, rng);
    ExpectLookupMatchesUpperBound(plan.global.cdf());
    ExpectLookupMatchesUpperBound(plan.by_class[3].cdf());
  }
}

// --- Both DC-SBM generators draw the retired binary-search generators' edges

class DcSbmReferenceTest
    : public ::testing::TestWithParam<std::tuple<int, double, double, int>> {
 protected:
  PlantedPartitionConfig Config() const {
    const auto [classes, homophily, power_law, nodes] = GetParam();
    PlantedPartitionConfig config;
    config.num_nodes = nodes;
    config.num_classes = classes;
    config.num_edges = 4 * nodes;
    config.homophily = homophily;
    config.power_law = power_law;
    return config;
  }
};

TEST_P(DcSbmReferenceTest, StreamedEdgesMatchReference) {
  const PlantedPartitionConfig config = Config();
  Rng rng(16);
  const DcSbmPlan plan = PlanDcSbm(config, rng);
  Rng edge_stream_rng(rng.Next());
  const EdgeList edges = DrawDcSbmEdges(config, plan, edge_stream_rng);

  Rng reference_rng(16);
  const testing::ReferenceDcSbmPlan reference =
      testing::ReferencePlanDcSbm(config, reference_rng);
  EdgeList expected;
  testing::ReferenceStreamDcSbmEdges(
      config, reference, [&](int u, int v) { expected.emplace_back(u, v); });

  EXPECT_EQ(plan.labels, reference.labels);
  EXPECT_EQ(plan.class_members, reference.class_members);
  EXPECT_EQ(plan.global.cdf(), reference.global_cdf);
  for (int c = 0; c < config.num_classes; ++c) {
    EXPECT_EQ(plan.by_class[c].cdf(), reference.class_cdf[c]);
  }
  EXPECT_EQ(edges, expected);
  // The caller's stream continues where the reference's does.
  EXPECT_EQ(rng.Next(), reference_rng.Next());
}

TEST_P(DcSbmReferenceTest, PlantedPartitionMatchesReference) {
  const PlantedPartitionConfig config = Config();
  Rng rng(17);
  const PlantedPartitionGraph graph = PlantedPartition(config, rng);
  Rng reference_rng(17);
  const PlantedPartitionGraph expected =
      testing::ReferencePlantedPartition(config, reference_rng);
  EXPECT_EQ(graph.labels, expected.labels);
  EXPECT_EQ(graph.edges, expected.edges);
  EXPECT_EQ(rng.Next(), reference_rng.Next());
}

// power_law 0 makes a flat CDF with a tie at every bucket bound; n = 8 with
// ten classes leaves classes empty, and homophily 1 there rejects every
// draw until the attempt budget runs out.
INSTANTIATE_TEST_SUITE_P(
    Sweep, DcSbmReferenceTest,
    ::testing::Combine(::testing::Values(1, 10),
                       ::testing::Values(0.0, 0.5, 1.0),
                       ::testing::Values(0.0, 2.5),
                       ::testing::Values(8, 100, 2708, 20000)));

TEST(FeatureTest, FeaturesAreRowNormalised) {
  Rng rng(8);
  std::vector<int> labels(100);
  for (int i = 0; i < 100; ++i) labels[i] = i % 4;
  FeatureConfig config;
  Matrix features = MakeClassFeatures(labels, 4, config, rng);
  for (int i = 0; i < features.rows(); ++i) {
    double norm_sq = 0.0;
    for (int j = 0; j < features.cols(); ++j) {
      norm_sq += features.at(i, j) * features.at(i, j);
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-4);
  }
}

TEST(FeatureTest, SameClassFeaturesAreMoreSimilar) {
  Rng rng(9);
  const int n = 400;
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = i % 2;
  FeatureConfig config;
  config.signal = 0.8;
  Matrix features = MakeClassFeatures(labels, 2, config, rng);

  double same = 0.0, cross = 0.0;
  int same_count = 0, cross_count = 0;
  Rng pair_rng(10);
  for (int trial = 0; trial < 4000; ++trial) {
    const int i = static_cast<int>(pair_rng.UniformInt(n));
    const int j = static_cast<int>(pair_rng.UniformInt(n));
    if (i == j) continue;
    const float cos =
        CosineSimilarity(features.row(i), features.row(j), features.cols());
    if (labels[i] == labels[j]) {
      same += cos;
      ++same_count;
    } else {
      cross += cos;
      ++cross_count;
    }
  }
  EXPECT_GT(same / same_count, cross / cross_count + 0.1);
}

TEST(FeatureTest, ZeroSignalHasNoClassStructure) {
  Rng rng(11);
  const int n = 300;
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = i % 2;
  FeatureConfig config;
  config.signal = 0.0;
  Matrix features = MakeClassFeatures(labels, 2, config, rng);
  double same = 0.0, cross = 0.0;
  int same_count = 0, cross_count = 0;
  for (int i = 0; i < 100; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      const float cos =
          CosineSimilarity(features.row(i), features.row(j), features.cols());
      if (labels[i] == labels[j]) {
        same += cos;
        ++same_count;
      } else {
        cross += cos;
        ++cross_count;
      }
    }
  }
  EXPECT_NEAR(same / same_count, cross / cross_count, 0.05);
}

}  // namespace
}  // namespace skipnode
