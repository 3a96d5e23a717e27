// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "tensor/ops.h"

namespace skipnode {
namespace {

// Writes `contents` to a fresh temp file and returns its path.
std::string WriteTempFile(const std::string& tag,
                          const std::string& contents) {
  const std::string path =
      ::testing::TempDir() + "/skipnode_io_" + tag + ".txt";
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(IoTest, EdgeListRoundTrip) {
  EdgeList edges = {{0, 1}, {1, 2}, {0, 3}};
  const std::string path = ::testing::TempDir() + "/edges_roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(path, edges));
  EdgeList loaded;
  int num_nodes = 0;
  ASSERT_TRUE(LoadEdgeList(path, &loaded, &num_nodes));
  EXPECT_EQ(loaded, edges);
  EXPECT_EQ(num_nodes, 4);
}

TEST(IoTest, EdgeListSkipsCommentsSelfLoopsAndDuplicates) {
  const std::string path = WriteTempFile("edges", R"(# a comment
0 1
1 0
2 2
3 4
)");
  EdgeList loaded;
  int num_nodes = 0;
  ASSERT_TRUE(LoadEdgeList(path, &loaded, &num_nodes));
  // "1 0" duplicates "0 1" (undirected); "2 2" is a self-loop.
  EXPECT_EQ(loaded, (EdgeList{{0, 1}, {3, 4}}));
  EXPECT_EQ(num_nodes, 5);
}

TEST(IoTest, EdgeListRespectsMinNumNodes) {
  const std::string path = WriteTempFile("edges_min", "0 1\n");
  EdgeList loaded;
  int num_nodes = 0;
  ASSERT_TRUE(LoadEdgeList(path, &loaded, &num_nodes, /*min_num_nodes=*/10));
  EXPECT_EQ(num_nodes, 10);
}

TEST(IoTest, EdgeListRejectsGarbage) {
  const std::string path = WriteTempFile("edges_bad", "0 x\n");
  EdgeList loaded;
  int num_nodes = 0;
  EXPECT_FALSE(LoadEdgeList(path, &loaded, &num_nodes));
  EXPECT_FALSE(LoadEdgeList("/nonexistent/file", &loaded, &num_nodes));
}

TEST(IoTest, LabelsRoundTrip) {
  const std::vector<int> labels = {0, 2, 1, 1, 0};
  const std::string path = ::testing::TempDir() + "/labels_roundtrip.txt";
  ASSERT_TRUE(SaveLabels(path, labels));
  std::vector<int> loaded;
  ASSERT_TRUE(LoadLabels(path, &loaded));
  EXPECT_EQ(loaded, labels);
}

TEST(IoTest, MatrixCsvRoundTrip) {
  Rng rng(1);
  Matrix m = Matrix::Random(5, 3, rng);
  const std::string path = ::testing::TempDir() + "/matrix_roundtrip.csv";
  ASSERT_TRUE(SaveMatrixCsv(path, m));
  Matrix loaded;
  ASSERT_TRUE(LoadMatrixCsv(path, &loaded));
  ASSERT_EQ(loaded.rows(), 5);
  ASSERT_EQ(loaded.cols(), 3);
  EXPECT_LT(MaxAbsDiff(loaded, m), 1e-4f);
}

TEST(IoTest, MatrixCsvRejectsRaggedRows) {
  const std::string path = WriteTempFile("ragged", "1,2,3\n4,5\n");
  Matrix loaded;
  EXPECT_FALSE(LoadMatrixCsv(path, &loaded));
}

TEST(IoTest, MatrixCsvRejectsNonNumeric) {
  const std::string path = WriteTempFile("nonnum", "1,abc\n");
  Matrix loaded;
  EXPECT_FALSE(LoadMatrixCsv(path, &loaded));
}

TEST(IoTest, LoadGraphAssemblesAllPieces) {
  // Export a synthetic graph and re-import it.
  Graph original = BuildDatasetByName("cornell_like", 1.0, 5);
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveEdgeList(dir + "/g_edges.txt",
                           UndirectedEdges(*original.normalized_adjacency())));
  ASSERT_TRUE(SaveMatrixCsv(dir + "/g_feats.csv", original.features()));
  ASSERT_TRUE(SaveLabels(dir + "/g_labels.txt", original.labels()));

  std::unique_ptr<Graph> loaded;
  ASSERT_TRUE(LoadGraph("reimported", dir + "/g_edges.txt",
                        dir + "/g_feats.csv", dir + "/g_labels.txt",
                        &loaded));
  EXPECT_EQ(loaded->num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded->num_edges(), original.num_edges());
  EXPECT_EQ(loaded->num_classes(), original.num_classes());
  EXPECT_EQ(loaded->labels(), original.labels());
  EXPECT_LT(MaxAbsDiff(loaded->features(), original.features()), 1e-4f);
  EXPECT_NEAR(loaded->EdgeHomophily(), original.EdgeHomophily(), 1e-9);
}

TEST(IoTest, LoadGraphWithoutLabels) {
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveEdgeList(dir + "/u_edges.txt", {{0, 1}, {1, 2}}));
  ASSERT_TRUE(SaveMatrixCsv(dir + "/u_feats.csv",
                            Matrix::Ones(3, 2)));
  std::unique_ptr<Graph> loaded;
  ASSERT_TRUE(LoadGraph("unlabeled", dir + "/u_edges.txt",
                        dir + "/u_feats.csv", "", &loaded));
  EXPECT_FALSE(loaded->has_labels());
  EXPECT_EQ(loaded->num_nodes(), 3);
}

TEST(IoTest, LoadGraphRejectsShapeMismatch) {
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveEdgeList(dir + "/m_edges.txt", {{0, 5}}));  // 6 nodes.
  ASSERT_TRUE(SaveMatrixCsv(dir + "/m_feats.csv", Matrix::Ones(3, 2)));
  std::unique_ptr<Graph> loaded;
  EXPECT_FALSE(LoadGraph("mismatch", dir + "/m_edges.txt",
                         dir + "/m_feats.csv", "", &loaded));
}

}  // namespace
}  // namespace skipnode
