// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// NeighborSampler contracts (DESIGN §15):
//   * Block shapes nest: every dst frontier is a prefix of its src frontier,
//     seeds are the top dst frontier, input_nodes the bottom src frontier.
//   * A fanout covering every neighborhood reproduces the exact Â slice
//     (bitwise values, scale exactly 1).
//   * Sampled rows preserve their Â row sum up to float rounding.
//   * A fixed (seeds, batch_seed) is bitwise reproducible at 1/4/8 threads
//     and across replays; a different batch_seed draws differently.
//   * Skip-masked dst rows collapse to the bare self entry, expand no
//     frontier, and are accounted in nodes_pruned / edges_pruned (and the
//     sampler.* telemetry counters).

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "base/telemetry.h"
#include "graph/datasets.h"
#include "graph/sampler.h"
#include "testing/pool_dispatches.h"

namespace skipnode {
namespace {

std::vector<int> SeedNodes(const Graph& graph, int count, uint64_t seed) {
  Rng rng(seed);
  std::set<int> picked;
  while (static_cast<int>(picked.size()) < count) {
    picked.insert(static_cast<int>(rng.UniformInt(graph.num_nodes())));
  }
  return std::vector<int>(picked.begin(), picked.end());
}

void ExpectIdenticalBlock(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (int r = 0; r <= a.rows(); ++r) {
    ASSERT_EQ(a.row_offsets()[static_cast<size_t>(r)],
              b.row_offsets()[static_cast<size_t>(r)]);
  }
  for (int64_t e = 0; e < a.nnz(); ++e) {
    const size_t i = static_cast<size_t>(e);
    ASSERT_EQ(a.col_idx()[i], b.col_idx()[i]) << "entry " << e;
    ASSERT_EQ(a.values()[i], b.values()[i]) << "entry " << e;  // bitwise
  }
}

void ExpectIdenticalBatch(const SampledBatch& a, const SampledBatch& b) {
  ASSERT_EQ(a.input_nodes, b.input_nodes);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t l = 0; l < a.layers.size(); ++l) {
    ExpectIdenticalBlock(*a.layers[l].block, *b.layers[l].block);
    ASSERT_EQ(a.layers[l].skip_mask, b.layers[l].skip_mask);
  }
  ASSERT_EQ(a.nodes_pruned, b.nodes_pruned);
  ASSERT_EQ(a.edges_pruned, b.edges_pruned);
}

class SamplerTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreadCount(0); }
};

TEST_F(SamplerTest, BlockShapesNestAndSelfEntriesExist) {
  const Graph graph = BuildDatasetByName("cora_like", 0.3, 1);
  NeighborSampler sampler(graph, {{4, 4, 4}});
  const std::vector<int> seeds = SeedNodes(graph, 32, 7);
  const SampledBatch batch = sampler.SampleBlocks(seeds, 99, nullptr);

  ASSERT_EQ(batch.layers.size(), 3u);
  // Top dst frontier is exactly the seed set.
  EXPECT_EQ(batch.layers[2].num_dst(), static_cast<int>(seeds.size()));
  // Frontiers nest: layer l's src frontier is layer l-1's... (the loop runs
  // top layer first, so src(l) == dst(l-1) going down).
  EXPECT_EQ(batch.layers[2].num_src(), batch.layers[1].num_dst());
  EXPECT_EQ(batch.layers[1].num_src(), batch.layers[0].num_dst());
  EXPECT_EQ(batch.layers[0].num_src(),
            static_cast<int>(batch.input_nodes.size()));
  // Seeds are the prefix of every frontier (dst ⊂ src with aligned ids).
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(batch.input_nodes[i], seeds[i]);
  }
  // Every dst row stores its self entry at local column == local row, plus
  // at most fanout neighbors.
  for (const SampledLayer& layer : batch.layers) {
    const CsrMatrix& block = *layer.block;
    for (int r = 0; r < block.rows(); ++r) {
      EXPECT_GE(block.RowNnz(r), 1);
      EXPECT_LE(block.RowNnz(r), 1 + 4);
      bool has_self = false;
      for (int64_t e = block.RowBegin(r); e < block.RowEnd(r); ++e) {
        if (block.col_idx()[static_cast<size_t>(e)] == r) has_self = true;
      }
      EXPECT_TRUE(has_self) << "row " << r;
    }
  }
  EXPECT_EQ(batch.nodes_pruned, 0);
  EXPECT_EQ(batch.edges_pruned, 0);
  EXPECT_GT(sampler.MemoryFootprintBytes(), 0);
}

TEST_F(SamplerTest, FullFanoutReproducesExactAdjacencySlice) {
  const Graph graph = BuildDatasetByName("cora_like", 0.2, 2);
  const CsrMatrix& a = *graph.normalized_adjacency();
  // A fanout no row can exceed: every block row must be the verbatim Â row.
  NeighborSampler sampler(graph, {{graph.num_nodes(), graph.num_nodes()}});
  const std::vector<int> seeds = SeedNodes(graph, 16, 3);
  const SampledBatch batch = sampler.SampleBlocks(seeds, 5, nullptr);

  for (const SampledLayer& layer : batch.layers) {
    const CsrMatrix& block = *layer.block;
    for (int r = 0; r < block.rows(); ++r) {
      const int g = batch.input_nodes[static_cast<size_t>(r)];
      ASSERT_EQ(block.RowNnz(r), a.RowNnz(g)) << "row " << r;
      // Collect the global row as (global col -> value) and compare each
      // block entry bitwise through the id map.
      for (int64_t e = block.RowBegin(r); e < block.RowEnd(r); ++e) {
        const int local_col = block.col_idx()[static_cast<size_t>(e)];
        const int global_col =
            batch.input_nodes[static_cast<size_t>(local_col)];
        bool found = false;
        for (int64_t ge = a.RowBegin(g); ge < a.RowEnd(g); ++ge) {
          if (a.col_idx()[static_cast<size_t>(ge)] == global_col) {
            EXPECT_EQ(block.values()[static_cast<size_t>(e)],
                      a.values()[static_cast<size_t>(ge)])  // bitwise
                << "row " << r << " col " << global_col;
            found = true;
          }
        }
        EXPECT_TRUE(found) << "row " << r << " col " << global_col;
      }
    }
  }
}

TEST_F(SamplerTest, SampledRowsPreserveAdjacencyRowSums) {
  const Graph graph = BuildDatasetByName("pubmed_like", 0.1, 4);
  const CsrMatrix& a = *graph.normalized_adjacency();
  NeighborSampler sampler(graph, {{2, 2}});
  const std::vector<int> seeds = SeedNodes(graph, 64, 11);
  const SampledBatch batch = sampler.SampleBlocks(seeds, 17, nullptr);

  const CsrMatrix& block = *batch.layers[1].block;
  for (int r = 0; r < block.rows(); ++r) {
    const int g = batch.input_nodes[static_cast<size_t>(r)];
    double block_sum = 0.0, full_sum = 0.0;
    for (int64_t e = block.RowBegin(r); e < block.RowEnd(r); ++e) {
      block_sum += block.values()[static_cast<size_t>(e)];
    }
    for (int64_t e = a.RowBegin(g); e < a.RowEnd(g); ++e) {
      full_sum += a.values()[static_cast<size_t>(e)];
    }
    EXPECT_NEAR(block_sum, full_sum, 1e-4 * (1.0 + full_sum))
        << "row " << r;
  }
}

TEST_F(SamplerTest, BitwiseIdenticalAcrossThreadCountsAndReplays) {
  // Large enough that the lower layers' fills and merges exceed the pool's
  // grain, so the 4- and 8-thread batches fan out (asserted below).
  const Graph graph = BuildDatasetByName("arxiv_like", 1.0, 6);
  const std::vector<int> seeds = SeedNodes(graph, 1024, 13);
  const LayerSkipMaskFn mask_fn = [](int layer,
                                     const std::vector<int>& dst_nodes) {
    if (layer != 1) return std::vector<uint8_t>();
    std::vector<uint8_t> mask(dst_nodes.size(), 0);
    for (size_t i = 0; i < mask.size(); ++i) mask[i] = (i % 3 == 0);
    return mask;
  };

  SetParallelThreadCount(1);
  NeighborSampler ref_sampler(graph, {{3, 3, 3}});
  const SampledBatch reference = ref_sampler.SampleBlocks(seeds, 21, mask_fn);
  // Replay on the same sampler instance (exercises the generation stamps).
  ExpectIdenticalBatch(reference,
                       ref_sampler.SampleBlocks(seeds, 21, mask_fn));
  for (const int threads : {4, 8}) {
    SetParallelThreadCount(threads);
    NeighborSampler sampler(graph, {{3, 3, 3}});
    SampledBatch batch;
    const int64_t dispatches = testing::PoolDispatches(
        [&] { batch = sampler.SampleBlocks(seeds, 21, mask_fn); });
    EXPECT_GT(dispatches, 0) << "threads=" << threads;
    ExpectIdenticalBatch(reference, batch);
  }

  // A different batch seed draws a different neighborhood.
  SetParallelThreadCount(1);
  const SampledBatch other = ref_sampler.SampleBlocks(seeds, 22, mask_fn);
  bool any_difference = other.input_nodes != reference.input_nodes;
  for (size_t l = 0; !any_difference && l < reference.layers.size(); ++l) {
    any_difference = reference.layers[l].block->nnz() !=
                         other.layers[l].block->nnz() ||
                     reference.layers[l].block->col_idx() !=
                         other.layers[l].block->col_idx();
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(SamplerTest, SkipMaskPrunesFrontierAndCountsSavings) {
  const Graph graph = BuildDatasetByName("cora_like", 0.3, 1);
  const std::vector<int> seeds = SeedNodes(graph, 32, 9);
  const LayerSkipMaskFn all_middle = [](int layer,
                                        const std::vector<int>& dst_nodes) {
    // Mask every dst row of the (single) middle layer.
    if (layer != 1) return std::vector<uint8_t>();
    return std::vector<uint8_t>(dst_nodes.size(), 1);
  };

  SetTelemetryEnabled(true);
  ResetTelemetry();
  NeighborSampler masked_sampler(graph, {{4, 4, 4}});
  const SampledBatch masked = masked_sampler.SampleBlocks(seeds, 5, all_middle);
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(false);
  NeighborSampler plain_sampler(graph, {{4, 4, 4}});
  const SampledBatch plain = plain_sampler.SampleBlocks(seeds, 5, nullptr);

  // Masked rows collapse to the bare self entry and expand nothing: the
  // middle layer's src frontier IS its dst frontier, and the input frontier
  // shrinks against the unmasked run.
  const SampledLayer& middle = masked.layers[1];
  EXPECT_FALSE(middle.skip_mask.empty());
  EXPECT_EQ(middle.num_src(), middle.num_dst());
  for (int r = 0; r < middle.block->rows(); ++r) {
    ASSERT_EQ(middle.block->RowNnz(r), 1) << "row " << r;
    EXPECT_EQ(middle.block->col_idx()[static_cast<size_t>(
                  middle.block->RowBegin(r))],
              r);
  }
  EXPECT_EQ(masked.nodes_pruned, middle.num_dst());
  EXPECT_GT(masked.edges_pruned, 0);
  EXPECT_LT(masked.input_nodes.size(), plain.input_nodes.size());

  const MetricStat* nodes = snapshot.Find("sampler.nodes_pruned");
  const MetricStat* edges = snapshot.Find("sampler.edges_pruned");
  ASSERT_NE(nodes, nullptr);
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(nodes->items, masked.nodes_pruned);
  EXPECT_EQ(edges->items, masked.edges_pruned);
}

// e2ebench reads each block build's `sparse.csr_build` record: its items
// (entries streamed in) are the denominator of graph.pruned_edge_share, its
// time sparse.csr_build_ms.
TEST_F(SamplerTest, EachBlockRecordsOneCsrBuildOfItsEntries) {
  const Graph graph = BuildDatasetByName("cora_like", 0.3, 1);
  graph.normalized_adjacency();  // Built before the window: it records too.
  NeighborSampler sampler(graph, {{4, 4, 4}});
  const std::vector<int> seeds = SeedNodes(graph, 32, 7);

  const bool enabled = TelemetryEnabled();
  SetTelemetryEnabled(true);
  ResetTelemetry();
  const SampledBatch batch = sampler.SampleBlocks(seeds, 99, nullptr);
  const TelemetrySnapshot snapshot = SnapshotTelemetry();
  SetTelemetryEnabled(enabled);

  int64_t block_nnz = 0;
  for (const SampledLayer& layer : batch.layers) {
    block_nnz += layer.block->nnz();
  }
  const MetricStat* build = snapshot.Find("sparse.csr_build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->count, static_cast<int64_t>(batch.layers.size()));
  EXPECT_EQ(build->items, block_nnz);
}

}  // namespace
}  // namespace skipnode
