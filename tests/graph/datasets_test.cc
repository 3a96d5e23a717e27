// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/datasets.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "sparse/csr_matrix.h"
#include "sparse/graph_ops.h"
#include "testing/coo_matrix.h"

namespace skipnode {
namespace {

TEST(DatasetsTest, AllSpecsAreListed) {
  EXPECT_EQ(AllDatasetSpecs().size(), 9u);
}

TEST(DatasetsTest, FindByName) {
  const DatasetSpec& spec = FindDatasetSpec("cora_like");
  EXPECT_EQ(spec.num_nodes, 2708);
  EXPECT_EQ(spec.num_classes, 7);
}

class DatasetBuildTest : public ::testing::TestWithParam<DatasetSpec> {};

TEST_P(DatasetBuildTest, MatchesSpecAtSmallScale) {
  const DatasetSpec& spec = GetParam();
  // Build at reduced scale to keep the suite fast. The scale must leave
  // each class enough intra-class pair capacity to hit the homophily
  // target (relevant for the 40-class arxiv stand-in).
  const double scale = spec.num_nodes > 3000 ? 0.25 : 0.3;
  Graph graph = BuildDataset(spec, scale, /*seed=*/3);

  EXPECT_EQ(graph.name(), spec.name);
  EXPECT_NEAR(graph.num_nodes(),
              std::max(spec.num_classes * 8,
                       static_cast<int>(std::lround(spec.num_nodes * scale))),
              1);
  EXPECT_EQ(graph.num_classes(), spec.num_classes);
  EXPECT_EQ(graph.feature_dim(), spec.feature_dim);
  EXPECT_TRUE(graph.has_labels());

  // Homophily should be near the spec target.
  EXPECT_NEAR(graph.EdgeHomophily(), spec.homophily, 0.10);

  // Years present exactly when requested.
  EXPECT_EQ(!graph.years().empty(), spec.with_years);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetBuildTest, ::testing::ValuesIn(AllDatasetSpecs()),
    [](const ::testing::TestParamInfo<DatasetSpec>& info) {
      return info.param.name;
    });

TEST(DatasetsTest, DeterministicForSameSeed) {
  Graph a = BuildDatasetByName("cora_like", 0.2, 7);
  Graph b = BuildDatasetByName("cora_like", 0.2, 7);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(UndirectedEdges(*a.normalized_adjacency()),
            UndirectedEdges(*b.normalized_adjacency()));
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(DatasetsTest, DifferentSeedsDiffer) {
  Graph a = BuildDatasetByName("cora_like", 0.2, 7);
  Graph b = BuildDatasetByName("cora_like", 0.2, 8);
  EXPECT_NE(UndirectedEdges(*a.normalized_adjacency()),
            UndirectedEdges(*b.normalized_adjacency()));
}

TEST(DatasetsTest, ArxivYearsSupportTemporalProtocol) {
  Graph arxiv = BuildDatasetByName("arxiv_like", 0.1, 5);
  int train = 0, val = 0, test = 0;
  for (const int year : arxiv.years()) {
    if (year <= 2017) {
      ++train;
    } else if (year == 2018) {
      ++val;
    } else {
      ++test;
    }
  }
  EXPECT_GT(train, val);
  EXPECT_GT(train, test);
  EXPECT_GT(val, 0);
  EXPECT_GT(test, 0);
}

TEST(DatasetsTest, HeterophilicDatasetsAreHeterophilic) {
  for (const char* name : {"chameleon_like", "cornell_like", "texas_like",
                           "wisconsin_like"}) {
    Graph graph = BuildDatasetByName(name, 1.0, 2);
    EXPECT_LT(graph.EdgeHomophily(), 0.4) << name;
  }
}

TEST(DatasetsTest, HomophilicDatasetsAreHomophilic) {
  for (const char* name : {"cora_like", "citeseer_like"}) {
    Graph graph = BuildDatasetByName(name, 0.3, 2);
    EXPECT_GT(graph.EdgeHomophily(), 0.6) << name;
  }
}

void ExpectIdenticalCsr(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (int r = 0; r <= a.rows(); ++r) {
    ASSERT_EQ(a.row_offsets()[static_cast<size_t>(r)],
              b.row_offsets()[static_cast<size_t>(r)])
        << "row " << r;
  }
  for (int64_t e = 0; e < a.nnz(); ++e) {
    const size_t i = static_cast<size_t>(e);
    ASSERT_EQ(a.col_idx()[i], b.col_idx()[i]) << "entry " << e;
    ASSERT_EQ(a.values()[i], b.values()[i]) << "entry " << e;  // bitwise
  }
}

// Each Graph builds A_hat from its generator's edge list on first use; the
// reference is built from the edges its pattern walk reports, which must be
// the same simple edges (same count, same degrees).
TEST(DatasetsTest, StreamingNormalizationBitwiseMatchesCooOnEveryDataset) {
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    const double scale = spec.num_nodes > 3000 ? 0.15 : 0.3;
    for (const int threads : {1, 4, 8}) {
      SetParallelThreadCount(threads);
      Graph graph = BuildDataset(spec, scale, /*seed=*/3);
      const int n = graph.num_nodes();
      const CsrMatrix& lazy = *graph.normalized_adjacency();
      const EdgeList edges = UndirectedEdges(lazy);
      ASSERT_EQ(static_cast<int>(edges.size()), graph.num_edges());
      ASSERT_EQ(Degrees(n, edges), graph.degrees());
      const CsrMatrix reference = testing::CooReferenceNormalized(n, edges);
      ExpectIdenticalCsr(reference, lazy);
      ExpectIdenticalCsr(reference, NormalizedAdjacency(n, edges));
    }
    SetParallelThreadCount(0);
  }
}

TEST(DatasetsTest, ParseDatasetRequestSuffixes) {
  DatasetRequest request;
  EXPECT_TRUE(ParseDatasetRequest("cora_like", &request));
  EXPECT_EQ(request.name, "cora_like");
  EXPECT_EQ(request.nodes, 0);

  EXPECT_TRUE(ParseDatasetRequest("synth@1m", &request));
  EXPECT_EQ(request.name, "synth");
  EXPECT_EQ(request.nodes, 1000000);

  EXPECT_TRUE(ParseDatasetRequest("arxiv_like@169k", &request));
  EXPECT_EQ(request.name, "arxiv_like");
  EXPECT_EQ(request.nodes, 169000);

  EXPECT_TRUE(ParseDatasetRequest("synth@2M", &request));  // case-insensitive
  EXPECT_EQ(request.nodes, 2000000);

  EXPECT_TRUE(ParseDatasetRequest("synth@12345", &request));
  EXPECT_EQ(request.nodes, 12345);

  DatasetRequest untouched;
  untouched.nodes = 77;
  EXPECT_FALSE(ParseDatasetRequest("synth@", &untouched));
  EXPECT_FALSE(ParseDatasetRequest("synth@10q", &untouched));
  EXPECT_FALSE(ParseDatasetRequest("synth@k", &untouched));
  // A failed parse leaves the request untouched.
  EXPECT_EQ(untouched.nodes, 77);
}

TEST(DatasetsTest, RegistryKnowsEveryClassicSpecPlusSynth) {
  DatasetRegistry& registry = DatasetRegistry::Global();
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    EXPECT_TRUE(registry.Contains(spec.name)) << spec.name;
  }
  EXPECT_TRUE(registry.Contains("synth"));
  EXPECT_FALSE(registry.Contains("nope"));
  EXPECT_EQ(registry.NamesWithSummaries().size(), 10u);
}

TEST(DatasetsTest, RegistryUnmodifiedRequestIsLegacyPath) {
  DatasetRequest request;
  request.name = "cora_like";
  request.scale = 0.2;
  request.seed = 7;
  Graph via_registry = DatasetRegistry::Global().Build(request);
  Graph direct = BuildDatasetByName("cora_like", 0.2, 7);
  ASSERT_EQ(via_registry.num_edges(), direct.num_edges());
  ExpectIdenticalCsr(*via_registry.normalized_adjacency(),
                     *direct.normalized_adjacency());
  EXPECT_EQ(via_registry.labels(), direct.labels());
}

TEST(DatasetsTest, NodeOverrideStreamsClassicSpecIntoCsr) {
  DatasetRequest request;
  request.name = "cora_like";
  request.seed = 7;
  request.nodes = 5000;
  Graph graph = DatasetRegistry::Global().Build(request);
  EXPECT_EQ(graph.num_nodes(), 5000);
  EXPECT_EQ(graph.num_classes(), 7);
  EXPECT_GT(graph.num_edges(), 0);
  EXPECT_GT(graph.MemoryFootprintBytes(), 0);
}

TEST(DatasetsTest, MemoryFootprintCountsLazyDegreeWeightCache) {
  // The footprint must track every resident array, including the lazily
  // materialised degree-weight cache the biased SkipNode sampler reads —
  // bench/scale budgets peak RSS against this number (DESIGN §13/§15).
  Graph graph = BuildDatasetByName("cora_like", 0.2, 3);
  const int64_t before = graph.MemoryFootprintBytes();
  const std::vector<double>& weights = graph.degree_weights();
  ASSERT_EQ(static_cast<int>(weights.size()), graph.num_nodes());
  const int64_t after = graph.MemoryFootprintBytes();
  EXPECT_EQ(after - before,
            static_cast<int64_t>(graph.num_nodes()) *
                static_cast<int64_t>(sizeof(double)));
}

TEST(DatasetsTest, EdgeListIsFreedOnceAdjacencyIsBuilt) {
  // A_hat stays lazy (building a dataset does not pay for it); once built,
  // its pattern replaces the edge list the constructor held.
  Graph graph = BuildDatasetByName("cora_like", 0.2, 3);
  const int64_t before = graph.MemoryFootprintBytes();
  const int64_t a_hat_bytes = graph.normalized_adjacency()->MemoryBytes();
  const int64_t edge_bytes = static_cast<int64_t>(graph.num_edges()) *
                             static_cast<int64_t>(sizeof(std::pair<int, int>));
  EXPECT_EQ(graph.MemoryFootprintBytes() - before, a_hat_bytes - edge_bytes);
}

TEST(DatasetsTest, StreamingSynthIsDeterministicAndHomophilous) {
  DatasetRequest request;
  request.name = "synth";
  request.seed = 5;
  request.nodes = 20000;
  Graph a = DatasetRegistry::Global().Build(request);
  Graph b = DatasetRegistry::Global().Build(request);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.labels(), b.labels());
  ExpectIdenticalCsr(*a.normalized_adjacency(), *b.normalized_adjacency());

  EXPECT_EQ(a.num_nodes(), 20000);
  EXPECT_EQ(a.feature_dim(), 32);
  EXPECT_EQ(a.num_classes(), 10);
  // Default degree follows the spec ratio (10); homophily near the target.
  const double avg_degree =
      2.0 * a.num_edges() / static_cast<double>(a.num_nodes());
  EXPECT_NEAR(avg_degree, 10.0, 1.0);
  EXPECT_NEAR(a.EdgeHomophily(), 0.80, 0.10);

  // No edge list ever exists at streaming scale; components walk the
  // pattern like on every other graph.
  const std::vector<int>& comp = a.components();
  EXPECT_EQ(static_cast<int>(comp.size()), a.num_nodes());

  // avg_degree override sizes the graph densely.
  request.avg_degree = 30.0;
  Graph dense = DatasetRegistry::Global().Build(request);
  const double dense_degree =
      2.0 * dense.num_edges() / static_cast<double>(dense.num_nodes());
  EXPECT_NEAR(dense_degree, 30.0, 3.0);
}

TEST(GraphTest, NormalizedAdjacencyIsCachedAndShared) {
  Graph graph = BuildDatasetByName("cornell_like", 1.0, 1);
  const auto a1 = graph.normalized_adjacency();
  const auto a2 = graph.normalized_adjacency();
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_EQ(a1->rows(), graph.num_nodes());
}

TEST(GraphTest, ComponentsCoverAllNodes) {
  Graph graph = BuildDatasetByName("texas_like", 1.0, 1);
  const std::vector<int>& comp = graph.components();
  EXPECT_EQ(static_cast<int>(comp.size()), graph.num_nodes());
  for (const int c : comp) EXPECT_GE(c, 0);
}

}  // namespace
}  // namespace skipnode
