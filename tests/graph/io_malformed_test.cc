// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Adversarial corpus for the text loaders: every malformed input must make
// the loader return false — never abort, never silently truncate, never
// hand back a partially-parsed result the caller might mistake for a graph.

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "graph/datasets.h"
#include "graph/io.h"

namespace skipnode {
namespace {

// Writes `contents` to a fresh temp file and returns its path.
std::string WriteTempFile(const std::string& tag,
                          const std::string& contents) {
  const std::string path =
      ::testing::TempDir() + "/skipnode_malformed_" + tag + ".txt";
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(IoMalformedTest, EdgeListRejectsEveryBadLine) {
  const struct {
    const char* tag;
    const char* contents;
  } kCases[] = {
      {"missing_endpoint", "0 1\n2\n"},
      {"extra_token", "0 1 7\n"},
      {"trailing_garbage", "0 1x\n"},
      {"non_numeric", "a b\n"},
      {"float_id", "0 1.5\n"},
      {"negative_id", "0 -3\n"},
      {"overflow_id", "0 99999999999999999999\n"},
      // Parses as an int, but max id + 1 would overflow the node count.
      {"int_max_id", "0 2147483647\n"},
  };
  for (const auto& test_case : kCases) {
    const std::string path = WriteTempFile(test_case.tag, test_case.contents);
    EdgeList edges;
    int num_nodes = 0;
    EXPECT_FALSE(LoadEdgeList(path, &edges, &num_nodes)) << test_case.tag;
  }
}

TEST(IoMalformedTest, EdgeListToleratesCrlfAndBlankLines) {
  const std::string path =
      WriteTempFile("crlf_edges", "0 1\r\n\r\n# comment\r\n2 3\r\n");
  EdgeList edges;
  int num_nodes = 0;
  ASSERT_TRUE(LoadEdgeList(path, &edges, &num_nodes));
  EXPECT_EQ(edges, (EdgeList{{0, 1}, {2, 3}}));
  EXPECT_EQ(num_nodes, 4);
}

TEST(IoMalformedTest, LabelsRejectEveryBadLine) {
  const struct {
    const char* tag;
    const char* contents;
  } kCases[] = {
      {"negative", "0\n-1\n"},
      {"non_numeric", "0\nx\n"},
      {"trailing_garbage", "0\n1 junk\n"},
      {"float_label", "0\n1.5\n"},
      {"overflow", "99999999999999999999\n"},
  };
  for (const auto& test_case : kCases) {
    const std::string path = WriteTempFile(test_case.tag, test_case.contents);
    std::vector<int> labels;
    EXPECT_FALSE(LoadLabels(path, &labels)) << test_case.tag;
  }
}

TEST(IoMalformedTest, LabelsRespectTheClaimedClassCount) {
  const std::string path = WriteTempFile("classes", "0\n1\n2\n");
  std::vector<int> labels;
  EXPECT_FALSE(LoadLabels(path, &labels, /*num_classes=*/2));
  ASSERT_TRUE(LoadLabels(path, &labels, /*num_classes=*/3));
  EXPECT_EQ(labels, (std::vector<int>{0, 1, 2}));
  // Default -1 means "no claim": any non-negative label passes.
  EXPECT_TRUE(LoadLabels(path, &labels));
}

TEST(IoMalformedTest, MatrixCsvRejectsEveryBadCell) {
  const struct {
    const char* tag;
    const char* contents;
  } kCases[] = {
      {"ragged_short", "1,2,3\n4,5\n"},
      {"ragged_long", "1,2\n3,4,5\n"},
      {"partial_number", "1.5abc,2\n"},
      {"empty_cell", "1,,3\n"},
      {"nan_cell", "1,nan\n"},
      {"inf_cell", "inf,2\n"},
      {"overflow_cell", "1e99999,2\n"},
      {"words", "hello,world\n"},
  };
  for (const auto& test_case : kCases) {
    const std::string path = WriteTempFile(test_case.tag, test_case.contents);
    Matrix matrix;
    EXPECT_FALSE(LoadMatrixCsv(path, &matrix)) << test_case.tag;
  }
}

TEST(IoMalformedTest, MatrixCsvToleratesCrlfAndPadding) {
  const std::string path =
      WriteTempFile("crlf_csv", "1.0, 2.0\r\n3.0,\t4.0\r\n");
  Matrix matrix;
  ASSERT_TRUE(LoadMatrixCsv(path, &matrix));
  ASSERT_EQ(matrix.rows(), 2);
  ASSERT_EQ(matrix.cols(), 2);
  EXPECT_FLOAT_EQ(matrix(1, 1), 4.0f);
}

TEST(IoMalformedTest, LoadGraphFailsCleanlyOnAnyBadPiece) {
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveEdgeList(dir + "/mf_edges.txt", {{0, 1}, {1, 2}}));
  ASSERT_TRUE(SaveMatrixCsv(dir + "/mf_feats.csv", Matrix::Ones(3, 2)));
  const std::string bad_labels = WriteTempFile("graph_labels", "0\n1\nx\n");

  std::unique_ptr<Graph> graph;
  EXPECT_FALSE(LoadGraph("bad", dir + "/mf_edges.txt", dir + "/mf_feats.csv",
                         bad_labels, &graph));
  EXPECT_EQ(graph, nullptr);

  // Well-formed labels that claim more classes than there are nodes; the
  // largest would overflow the max label + 1 class count.
  for (const char* labels : {"0\n1\n3\n", "0\n1\n2147483647\n"}) {
    const std::string path = WriteTempFile("graph_big_label", labels);
    EXPECT_FALSE(LoadGraph("bad", dir + "/mf_edges.txt",
                           dir + "/mf_feats.csv", path, &graph))
        << labels;
    EXPECT_EQ(graph, nullptr);
  }
}

// One random edit of `text`: a flipped bit, an inserted run of digits, a
// truncation, or a duplicated line.
void MutateOnce(std::string* text, Rng& rng) {
  const auto position = [&] {
    return static_cast<size_t>(rng.UniformInt(text->size() + 1));
  };
  switch (rng.UniformInt(4)) {
    case 0:
      if (!text->empty()) {
        (*text)[rng.UniformInt(text->size())] ^=
            static_cast<char>(1u << rng.UniformInt(8));
      }
      break;
    case 1: {
      std::string digits(1 + rng.UniformInt(12), '0');
      for (char& digit : digits) digit += static_cast<char>(rng.UniformInt(10));
      text->insert(position(), digits);
      break;
    }
    case 2:
      text->resize(position());
      break;
    default: {
      const size_t begin = text->rfind('\n', position());
      const size_t start = begin == std::string::npos ? 0 : begin + 1;
      size_t end = text->find('\n', start);
      end = end == std::string::npos ? text->size() : end + 1;
      text->insert(end, text->substr(start, end - start));
      break;
    }
  }
}

std::string Mutated(std::string text, Rng& rng) {
  const uint64_t edits = 1 + rng.UniformInt(3);
  for (uint64_t i = 0; i < edits; ++i) MutateOnce(&text, rng);
  return text;
}

// Seeded mutation pass over the fixtures above and the dataset-spec parser:
// every call must return (an abort fails the whole binary), and every graph
// LoadGraph accepts must build A_hat and walk its pattern.
TEST(IoMalformedTest, SeededMutationsNeverAbort) {
  const std::string edges = "0 1\r\n\r\n# comment\r\n2 3\r\n1 2\n";
  const std::string features = "1.0, 2.0\r\n3.0,\t4.0\r\n0.5,-1\n2e-3,7\n";
  const std::string labels = "0\n1\n2\n1\n";
  const std::vector<std::string> specs = {"cora_like", "synth@1m",
                                          "arxiv_like@169k", "synth@2K"};
  constexpr int kIterations = 600;
  Rng rng(17);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    // Mutate one file per round, so most rounds still reach LoadGraph's
    // cross-file checks and the accepting path.
    const std::string edge_path = WriteTempFile(
        "mut_edges", i % 3 == 0 ? Mutated(edges, rng) : edges);
    const std::string feature_path = WriteTempFile(
        "mut_feats", i % 3 == 1 ? Mutated(features, rng) : features);
    const std::string label_path = WriteTempFile(
        "mut_labels", i % 3 == 2 ? Mutated(labels, rng) : labels);

    EdgeList edge_list;
    int num_nodes = 0;
    LoadEdgeList(edge_path, &edge_list, &num_nodes);
    Matrix matrix;
    LoadMatrixCsv(feature_path, &matrix);
    std::vector<int> label_list;
    LoadLabels(label_path, &label_list);
    std::unique_ptr<Graph> graph;
    if (LoadGraph("mutant", edge_path, feature_path, label_path, &graph)) {
      ++accepted;
      EXPECT_EQ(graph->normalized_adjacency()->rows(), graph->num_nodes());
      EXPECT_EQ(static_cast<int>(graph->components().size()),
                graph->num_nodes());
      EXPECT_GE(graph->EdgeHomophily(), 0.0);
    }

    DatasetRequest request;
    ParseDatasetRequest(Mutated(specs[i % specs.size()], rng), &request);
  }
  EXPECT_GT(accepted, kIterations / 10);
}

}  // namespace
}  // namespace skipnode
