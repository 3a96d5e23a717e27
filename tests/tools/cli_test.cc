// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/cli.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/io.h"

namespace skipnode {
namespace {

struct CliResult {
  int exit_code;
  std::string output;
};

CliResult RunTool(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"skipnode_train"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());

  const std::string path = ::testing::TempDir() + "/cli_output.txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  EXPECT_NE(out, nullptr);
  const int code =
      RunCli(static_cast<int>(argv.size()), argv.data(), out);
  std::fclose(out);

  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return {code, contents.str()};
}

TEST(CliTest, HelpPrintsUsageAndFails) {
  const CliResult result = RunTool({"--help"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("--strategy"), std::string::npos);
}

TEST(CliTest, RejectsUnknownFlag) {
  const CliResult result = RunTool({"--bogus", "1"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("unknown flag"), std::string::npos);
}

TEST(CliTest, RejectsMissingDataSource) {
  const CliResult result = RunTool({"--model", "GCN"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("--dataset"), std::string::npos);
}

TEST(CliTest, RejectsUnknownDatasetModelAndStrategy) {
  EXPECT_EQ(RunTool({"--dataset", "nope"}).exit_code, 1);
  EXPECT_EQ(RunTool({"--dataset", "cornell_like", "--model", "nope"}).exit_code,
            1);
  EXPECT_EQ(RunTool({"--dataset", "cornell_like", "--strategy", "nope"})
                .exit_code,
            1);
}

TEST(CliTest, TrainsOnBuiltInDataset) {
  const CliResult result =
      RunTool({"--dataset", "cornell_like", "--model", "GCN", "--layers", "2",
           "--hidden", "16", "--epochs", "15", "--strategy", "skipnode-u",
           "--rate", "0.5", "--split", "random", "--seed", "3"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("test accuracy"), std::string::npos);
  EXPECT_NE(result.output.find("SkipNode-U"), std::string::npos);
  EXPECT_NE(result.output.find("penultimate MAD"), std::string::npos);
}

TEST(CliTest, TrainsOnUserFilesAndSavesCheckpoint) {
  // Export a graph to files, then train from them via the CLI.
  const std::string dir = ::testing::TempDir();
  Graph graph = BuildDatasetByName("texas_like", 1.0, 9);
  ASSERT_TRUE(SaveEdgeList(dir + "/cli_edges.txt", graph.edges()));
  ASSERT_TRUE(SaveMatrixCsv(dir + "/cli_feats.csv", graph.features()));
  ASSERT_TRUE(SaveLabels(dir + "/cli_labels.txt", graph.labels()));

  const CliResult result =
      RunTool({"--edges", dir + "/cli_edges.txt", "--features",
           dir + "/cli_feats.csv", "--labels", dir + "/cli_labels.txt",
           "--model", "APPNP", "--layers", "4", "--hidden", "16",
           "--epochs", "10", "--split", "random", "--save-dir", dir});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("checkpoint saved"), std::string::npos);
  // A parameter file from the APPNP model exists.
  std::ifstream manifest(dir + "/manifest.txt");
  EXPECT_TRUE(manifest.good());
}

TEST(CliTest, MetricsOutWritesEpochAndSummaryRecords) {
  const std::string path = ::testing::TempDir() + "/cli_metrics.jsonl";
  std::remove(path.c_str());
  const CliResult result =
      RunTool({"--dataset", "cornell_like", "--model", "GCN", "--layers", "2",
           "--hidden", "16", "--epochs", "6", "--split", "random",
           "--metrics-out", path});
  EXPECT_EQ(result.exit_code, 0) << result.output;

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // One record per epoch run plus the trailing summary (early stopping may
  // end the run before the epoch budget).
  ASSERT_GE(lines.size(), 2u);
  ASSERT_LE(lines.size(), 7u);
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"type\":\"epoch\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"forward_ns\":"), std::string::npos);
    EXPECT_NE(lines[i].find("\"backward_ns\":"), std::string::npos);
    EXPECT_NE(lines[i].find("\"step_ns\":"), std::string::npos);
  }
  EXPECT_NE(lines.back().find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"telemetry\":{"), std::string::npos);
  EXPECT_NE(lines.back().find("tensor.gemm"), std::string::npos);
}

TEST(CliTest, TrainsOnStreamingDatasetWithSizeSuffix) {
  const CliResult result =
      RunTool({"--dataset", "synth@2k", "--model", "GCN", "--layers", "2",
               "--hidden", "8", "--epochs", "5", "--split", "random",
               "--seed", "3"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("test accuracy"), std::string::npos);
}

TEST(CliTest, NodesAndAvgDegreeOverridesStreamClassicSpecs) {
  const CliResult result =
      RunTool({"--dataset", "cora_like", "--nodes", "2000", "--avg-degree",
               "6", "--model", "GCN", "--layers", "2", "--hidden", "8",
               "--epochs", "5", "--split", "random"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("2000 nodes"), std::string::npos);
}

TEST(CliTest, RejectsBadSizeSuffixAndNegativeOverrides) {
  const CliResult bad_suffix = RunTool({"--dataset", "synth@10q"});
  EXPECT_EQ(bad_suffix.exit_code, 1);
  EXPECT_NE(bad_suffix.output.find("size suffix"), std::string::npos);
  EXPECT_EQ(RunTool({"--dataset", "synth", "--nodes", "-5"}).exit_code, 1);
  EXPECT_EQ(RunTool({"--dataset", "synth", "--avg-degree", "-1"}).exit_code,
            1);
}

// A numeric value must parse completely and fit its type; it is never
// coerced to 0 or to a numeric prefix of the text.
TEST(CliTest, RejectsMalformedNumericFlags) {
  CliResult result = RunTool({"--dataset", "cornell_like", "--hidden", "abc"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: flag --hidden expects an integer, got "
                               "'abc'"),
            std::string::npos)
      << result.output;
  result = RunTool({"--dataset", "cornell_like", "--layers", "3x"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: flag --layers expects an integer, got "
                               "'3x'"),
            std::string::npos)
      << result.output;
  result = RunTool({"--dataset", "cornell_like", "--dropout", "0.5.1"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: flag --dropout expects a number"),
            std::string::npos)
      << result.output;
  result = RunTool({"--dataset", "cornell_like", "--lr", "nan"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: flag --lr expects a number"),
            std::string::npos)
      << result.output;
  result = RunTool({"--dataset", "cornell_like", "--seed", "-1"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: flag --seed expects a non-negative "
                               "integer"),
            std::string::npos)
      << result.output;
  result = RunTool({"--dataset", "cornell_like", "--epochs", "99999999999"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: flag --epochs expects an integer"),
            std::string::npos)
      << result.output;
}

// Values the model, dropout op or trainer would abort on exit 1 with a
// message instead.
TEST(CliTest, RejectsOutOfRangeModelFlags) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--hidden", "0"}, "error: --hidden must be >= 1"},
       {{"--epochs", "-3"}, "error: --epochs must be >= 0"},
       {{"--dropout", "1"}, "error: --dropout must be in [0, 1)"},
       {{"--dropout", "-0.1"}, "error: --dropout must be in [0, 1)"},
       {{"--strategy", "dropedge", "--rate", "1"},
        "error: --rate must be < 1 for strategy 'dropedge'"}};
  for (const auto& [flags, message] : cases) {
    std::vector<std::string> args = {"--dataset", "cornell_like"};
    args.insert(args.end(), flags.begin(), flags.end());
    const CliResult result = RunTool(args);
    EXPECT_EQ(result.exit_code, 1) << flags[0];
    EXPECT_NE(result.output.find(message), std::string::npos)
        << result.output;
  }
}

TEST(CliTest, RejectsBadScaleAndLayers) {
  EXPECT_EQ(RunTool({"--dataset", "cornell_like", "--scale", "0"}).exit_code, 1);
  EXPECT_EQ(RunTool({"--dataset", "cornell_like", "--layers", "1", "--epochs",
                 "1"})
                .exit_code,
            1);
}

}  // namespace
}  // namespace skipnode
