// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "core/strategies.h"

#include <cmath>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/splits.h"
#include "tensor/ops.h"

namespace skipnode {
namespace {

class StrategiesTest : public ::testing::Test {
 protected:
  StrategiesTest() : graph_(BuildDatasetByName("cornell_like", 1.0, 1)) {}

  Graph graph_;
  Rng rng_{42};
};

TEST_F(StrategiesTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(StrategyKind::kNone), "-");
  EXPECT_STREQ(StrategyName(StrategyKind::kSkipNodeUniform), "SkipNode-U");
  EXPECT_STREQ(StrategyName(StrategyKind::kSkipNodeBiased), "SkipNode-B");
  EXPECT_STREQ(StrategyName(StrategyKind::kDropEdge), "DropEdge");
  EXPECT_STREQ(StrategyName(StrategyKind::kDropNode), "DropNode");
  EXPECT_STREQ(StrategyName(StrategyKind::kPairNorm), "PairNorm");
}

TEST_F(StrategiesTest, NoneUsesCachedAdjacencyAndIdentityTransform) {
  StrategyContext ctx(graph_, StrategyConfig::None(), /*training=*/true,
                      rng_);
  EXPECT_EQ(ctx.LayerAdjacency(0).get(),
            graph_.normalized_adjacency().get());

  Tape tape;
  Rng value_rng(1);
  Var pre = tape.Constant(Matrix::Random(graph_.num_nodes(), 4, value_rng));
  Var conv = tape.Constant(Matrix::Random(graph_.num_nodes(), 4, value_rng));
  Var out = ctx.TransformMiddle(tape, pre, conv);
  EXPECT_LT(MaxAbsDiff(out.value(), conv.value()), 1e-7f);
}

TEST_F(StrategiesTest, SkipNodePreservesSkippedRowsExactly) {
  StrategyContext ctx(graph_, StrategyConfig::SkipNodeU(0.5f),
                      /*training=*/true, rng_);
  Tape tape;
  Rng value_rng(2);
  Matrix pre_val = Matrix::Random(graph_.num_nodes(), 4, value_rng);
  Matrix conv_val = Matrix::Random(graph_.num_nodes(), 4, value_rng);
  Var out = ctx.TransformMiddle(tape, tape.Constant(pre_val),
                                tape.Constant(conv_val));
  // Every output row equals either the pre row or the conv row; a sizeable
  // fraction of each must be present at rho = 0.5.
  int from_pre = 0, from_conv = 0;
  for (int r = 0; r < graph_.num_nodes(); ++r) {
    float diff_pre = 0.0f, diff_conv = 0.0f;
    for (int c = 0; c < 4; ++c) {
      diff_pre += std::fabs(out.value()(r, c) - pre_val(r, c));
      diff_conv += std::fabs(out.value()(r, c) - conv_val(r, c));
    }
    ASSERT_TRUE(diff_pre < 1e-6f || diff_conv < 1e-6f);
    if (diff_pre < 1e-6f) ++from_pre;
    if (diff_conv < 1e-6f) ++from_conv;
  }
  EXPECT_GT(from_pre, graph_.num_nodes() / 5);
  EXPECT_GT(from_conv, graph_.num_nodes() / 5);
}

TEST_F(StrategiesTest, SkipNodeIsIdentityAtEvalTime) {
  StrategyContext ctx(graph_, StrategyConfig::SkipNodeU(0.9f),
                      /*training=*/false, rng_);
  Tape tape;
  Rng value_rng(3);
  Matrix conv_val = Matrix::Random(graph_.num_nodes(), 4, value_rng);
  Var out = ctx.TransformMiddle(
      tape, tape.Constant(Matrix(graph_.num_nodes(), 4)),
      tape.Constant(conv_val));
  EXPECT_LT(MaxAbsDiff(out.value(), conv_val), 1e-7f);
}

TEST_F(StrategiesTest, SkipConnectionAddsInput) {
  StrategyContext ctx(graph_, StrategyConfig::SkipConnection(),
                      /*training=*/true, rng_);
  Tape tape;
  Rng value_rng(4);
  Matrix pre_val = Matrix::Random(graph_.num_nodes(), 4, value_rng);
  Matrix conv_val = Matrix::Random(graph_.num_nodes(), 4, value_rng);
  Var out = ctx.TransformMiddle(tape, tape.Constant(pre_val),
                                tape.Constant(conv_val));
  EXPECT_LT(MaxAbsDiff(out.value(), Add(pre_val, conv_val)), 1e-6f);
}

TEST_F(StrategiesTest, PairNormProducesEqualRowNorms) {
  StrategyContext ctx(graph_, StrategyConfig::PairNorm(2.0f),
                      /*training=*/true, rng_);
  Tape tape;
  Rng value_rng(5);
  Matrix conv_val = Matrix::Random(graph_.num_nodes(), 6, value_rng);
  Var out = ctx.TransformMiddle(
      tape, tape.Constant(Matrix(graph_.num_nodes(), 6)),
      tape.Constant(conv_val));
  Matrix norms = RowNorms(out.value());
  for (int r = 0; r < norms.rows(); ++r) {
    EXPECT_NEAR(norms.at(r, 0), 2.0f, 1e-3f);
  }
  // Column means ~ 0 after centering (scaled rows keep mean close to 0).
  Matrix means = ColumnMeans(out.value());
  EXPECT_LT(means.AbsMax(), 0.5f);
}

TEST_F(StrategiesTest, PairNormAppliesAtBoundariesToo) {
  StrategyContext ctx(graph_, StrategyConfig::PairNorm(1.0f),
                      /*training=*/true, rng_);
  Tape tape;
  Rng value_rng(6);
  Matrix conv_val = Matrix::Random(graph_.num_nodes(), 3, value_rng);
  Var out = ctx.TransformBoundary(tape, tape.Constant(conv_val));
  EXPECT_GT(MaxAbsDiff(out.value(), conv_val), 1e-4f);
  // Whereas other strategies are boundary no-ops.
  StrategyContext none(graph_, StrategyConfig::SkipNodeU(0.5f),
                       /*training=*/true, rng_);
  Var unchanged = none.TransformBoundary(tape, tape.Constant(conv_val));
  EXPECT_LT(MaxAbsDiff(unchanged.value(), conv_val), 1e-7f);
}

TEST_F(StrategiesTest, DropEdgeSamplesOncePerContext) {
  StrategyContext ctx(graph_, StrategyConfig::DropEdge(0.5f),
                      /*training=*/true, rng_);
  const auto a0 = ctx.LayerAdjacency(0);
  const auto a1 = ctx.LayerAdjacency(1);
  EXPECT_EQ(a0.get(), a1.get());
  EXPECT_NE(a0.get(), graph_.normalized_adjacency().get());
  EXPECT_LT(a0->nnz(), graph_.normalized_adjacency()->nnz());
  // A fresh context samples a different topology.
  StrategyContext ctx2(graph_, StrategyConfig::DropEdge(0.5f),
                       /*training=*/true, rng_);
  EXPECT_NE(ctx2.LayerAdjacency(0).get(), a0.get());
}

TEST_F(StrategiesTest, DropNodeResamplesPerLayer) {
  StrategyContext ctx(graph_, StrategyConfig::DropNode(0.5f),
                      /*training=*/true, rng_);
  const auto a0 = ctx.LayerAdjacency(0);
  const auto a1 = ctx.LayerAdjacency(1);
  EXPECT_NE(a0.get(), a1.get());
  EXPECT_GT(MaxAbsDiff(a0->ToDense(), a1->ToDense()), 1e-6f);
}

TEST_F(StrategiesTest, TopologyStrategiesRevertAtEval) {
  for (const StrategyConfig& config :
       {StrategyConfig::DropEdge(0.5f), StrategyConfig::DropNode(0.5f)}) {
    StrategyContext ctx(graph_, config, /*training=*/false, rng_);
    EXPECT_EQ(ctx.LayerAdjacency(0).get(),
              graph_.normalized_adjacency().get());
  }
}

// A minibatch context serves the batch's blocks and the masks the sampler
// drew: the k-th middle combine applies layer k + 1's mask, through both
// the unfused and the fused combine, and nothing touches the Rng.
TEST_F(StrategiesTest, BatchContextServesBlocksAndPreDrawnMasks) {
  const StrategyConfig config = StrategyConfig::SkipNodeU(0.5f);
  NeighborSampler sampler(graph_, {{3, 3, 3, 3}});
  Rng mask_rng(8);
  const SampledBatch batch = sampler.SampleBlocks(
      {0, 5, 9, 14, 20, 33}, 17,
      MakeSampledSkipMaskFn(graph_, config, 4, mask_rng));
  ASSERT_FALSE(batch.layers[1].skip_mask.empty());
  ASSERT_FALSE(batch.layers[2].skip_mask.empty());
  Rng before = rng_;
  StrategyContext ctx(graph_, batch, config, rng_);

  Tape tape;
  EXPECT_EQ(ctx.Features(tape).rows(),
            static_cast<int>(batch.input_nodes.size()));
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(ctx.LayerAdjacency(l).get(), batch.layers[l].block.get());
  }
  // pre is all ones, conv (and the h that PropagateMiddle convolves) all
  // zeros, so row r of a combine is 1 exactly when the mask skips it.
  const auto pre = [&](int layer) {
    const Matrix ones = Matrix::Ones(batch.layers[layer].num_src(), 2);
    return ctx.OutputRows(tape, layer, tape.Constant(ones));
  };
  const auto expect_mask = [](const Var& out,
                              const std::vector<uint8_t>& mask) {
    ASSERT_EQ(out.rows(), static_cast<int>(mask.size()));
    for (int r = 0; r < out.rows(); ++r) {
      EXPECT_EQ(out.value()(r, 0), mask[static_cast<size_t>(r)] ? 1.0f : 0.0f)
          << "row " << r;
    }
  };
  expect_mask(ctx.TransformMiddle(
                  tape, pre(1),
                  tape.Constant(Matrix(batch.layers[1].num_dst(), 2))),
              batch.layers[1].skip_mask);
  expect_mask(ctx.PropagateMiddle(
                  tape, 2, pre(2),
                  tape.Constant(Matrix(batch.layers[2].num_src(), 2))),
              batch.layers[2].skip_mask);
  EXPECT_EQ(ctx.middle_calls(), 2);
  EXPECT_EQ(rng_.Next(), before.Next());  // No draw from the pass's Rng.
}

// A streamed graph adopts a pre-built A_hat and never holds an edge list;
// DropEdge, DropNode and link splits walk its pattern like on any graph.
TEST(StreamedGraphStrategiesTest, DropEdgeDropNodeAndLinkSplitRun) {
  DatasetRequest request;
  ASSERT_TRUE(ParseDatasetRequest("synth@2k", &request));
  const Graph graph = DatasetRegistry::Global().Build(request);
  const int n = graph.num_nodes();
  const double m = graph.num_edges();
  Rng rng(9);

  StrategyContext drop_edge(graph, StrategyConfig::DropEdge(0.5f),
                            /*training=*/true, rng);
  const auto edge_sampled = drop_edge.LayerAdjacency(0);
  EXPECT_TRUE(edge_sampled->IsSymmetric());
  EXPECT_EQ(edge_sampled->rows(), n);
  EXPECT_NEAR((edge_sampled->nnz() - n) / 2 / m, 0.5, 0.05);

  StrategyContext drop_node(graph, StrategyConfig::DropNode(0.5f),
                            /*training=*/true, rng);
  const auto node_sampled = drop_node.LayerAdjacency(0);
  EXPECT_TRUE(node_sampled->IsSymmetric());
  int dropped = 0;
  for (int r = 0; r < n; ++r) {
    bool self_loop = false;
    for (int64_t e = node_sampled->RowBegin(r); e < node_sampled->RowEnd(r);
         ++e) {
      self_loop |= node_sampled->col_idx()[static_cast<size_t>(e)] == r;
    }
    if (self_loop) continue;
    // A dropped node loses its self-loop and every incident edge.
    EXPECT_EQ(node_sampled->RowNnz(r), 0) << "row " << r;
    ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.5, 0.05);

  const LinkSplit split = MakeLinkSplit(graph, 0.1, 0.2, 200, rng);
  std::set<std::pair<int, int>> held;
  for (const EdgeList* part :
       {&split.train_edges, &split.val_pos, &split.test_pos}) {
    for (const auto& edge : *part) EXPECT_TRUE(held.insert(edge).second);
  }
  EXPECT_EQ(static_cast<int>(held.size()), graph.num_edges());
  const EdgeList pattern = UndirectedEdges(*graph.normalized_adjacency());
  const std::set<std::pair<int, int>> edges(pattern.begin(), pattern.end());
  EXPECT_EQ(held, edges);
}

}  // namespace
}  // namespace skipnode
