// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/serve_cli.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tools/cli.h"

namespace skipnode {
namespace {

struct CliResult {
  int exit_code;
  std::string output;
};

CliResult RunTool(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"skipnode_serve"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());

  const std::string path = ::testing::TempDir() + "/serve_cli_output.txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  EXPECT_NE(out, nullptr);
  const int code =
      RunServeCli(static_cast<int>(argv.size()), argv.data(), out);
  std::fclose(out);

  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return {code, contents.str()};
}

TEST(ServeCliTest, HelpPrintsUsageAndFails) {
  const CliResult result = RunTool({"--help"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("--window-us"), std::string::npos);
}

TEST(ServeCliTest, RejectsUnknownFlagAndModel) {
  EXPECT_EQ(RunTool({"--bogus", "1"}).exit_code, 1);
  const CliResult result = RunTool({"--model", "NotANet"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("unknown model"), std::string::npos);
}

TEST(ServeCliTest, TrainFreezeServeVerifiesBitwise) {
  const CliResult result = RunTool(
      {"--dataset", "cornell_like", "--model", "SGC", "--epochs", "3",
       "--clients", "3", "--requests", "8", "--window-us", "300"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("linear-head path"), std::string::npos);
  EXPECT_NE(result.output.find("verification OK"), std::string::npos);
}

TEST(ServeCliTest, ServesFromTrainCliCheckpoint) {
  // End-to-end interop: skipnode_train --save-dir, then skipnode_serve
  // --load-dir with a matching architecture.
  const std::string dir = ::testing::TempDir() + "/serve_cli_ckpt";
  std::vector<const char*> train_argv = {
      "skipnode_train", "--dataset", "cornell_like", "--model", "GCN",
      "--layers",       "3",         "--epochs",     "3",       "--save-dir",
      dir.c_str()};
  const std::string train_out_path =
      ::testing::TempDir() + "/serve_cli_train_output.txt";
  std::FILE* train_out = std::fopen(train_out_path.c_str(), "w");
  ASSERT_NE(train_out, nullptr);
  const int train_code = RunCli(static_cast<int>(train_argv.size()),
                                train_argv.data(), train_out);
  std::fclose(train_out);
  ASSERT_EQ(train_code, 0);

  const CliResult result = RunTool(
      {"--dataset", "cornell_like", "--model", "GCN", "--layers", "3",
       "--load-dir", dir, "--clients", "2", "--requests", "4"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("from checkpoint"), std::string::npos);
  EXPECT_NE(result.output.find("logit-gather path"), std::string::npos);
  EXPECT_NE(result.output.find("verification OK"), std::string::npos);
}

// The serve CLI shares the model/data flags and their checks with
// skipnode_train: out-of-range values exit 1 with a message instead of
// aborting inside the trainer, the dropout op or a model constructor.
TEST(ServeCliTest, RejectsOutOfRangeModelFlags) {
  CliResult result = RunTool({"--epochs", "-1"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: --epochs must be >= 0"),
            std::string::npos)
      << result.output;
  result = RunTool({"--dropout", "1"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: --dropout must be in [0, 1)"),
            std::string::npos)
      << result.output;
  result = RunTool({"--hidden", "abc"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: flag --hidden expects an integer, "
                               "got 'abc'"),
            std::string::npos)
      << result.output;
  for (const char* layers : {"0", "1"}) {
    result = RunTool({"--model", "GCN", "--layers", layers});
    EXPECT_EQ(result.exit_code, 1);
    EXPECT_NE(result.output.find("error: --layers must be >= 2"),
              std::string::npos)
        << result.output;
  }
}

// The ServeOptions values the InferenceServer constructor CHECKs exit 1
// with an error line instead of aborting the process.
TEST(ServeCliTest, RejectsOutOfRangeServerFlags) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--workers", "0"}, "error: --workers/--batch-rows must be >= 1"},
       {{"--batch-rows", "0"}, "error: --workers/--batch-rows must be >= 1"},
       {{"--window-us", "-1"},
        "error: --window-us/--queue-cap/--deadline-us must be >= 0"},
       {{"--queue-cap", "-1"},
        "error: --window-us/--queue-cap/--deadline-us must be >= 0"},
       {{"--deadline-us", "-1"},
        "error: --window-us/--queue-cap/--deadline-us must be >= 0"}};
  for (const auto& [flags, message] : cases) {
    const CliResult result = RunTool(flags);
    EXPECT_EQ(result.exit_code, 1) << flags[0];
    EXPECT_NE(result.output.find(message), std::string::npos)
        << result.output;
  }
}

// A --load-dir that holds no usable checkpoint is reported, not aborted on.
TEST(ServeCliTest, LoadDirWithoutValidCheckpointFailsWithError) {
  const std::string missing = ::testing::TempDir() + "/serve_cli_no_ckpt";
  const std::string corrupt = ::testing::TempDir() + "/serve_cli_bad_ckpt";
  std::ignore = std::system(("mkdir -p " + corrupt).c_str());
  {
    std::ofstream manifest(corrupt + "/manifest.txt");
    manifest << "not a checkpoint\n";
  }
  for (const std::string& dir : {missing, corrupt}) {
    const CliResult result = RunTool({"--dataset", "cornell_like", "--model",
                                      "GCN", "--load-dir", dir});
    EXPECT_EQ(result.exit_code, 1) << dir;
    EXPECT_NE(result.output.find("error: serve: no readable checkpoint "
                                 "manifest under '" + dir + "'"),
              std::string::npos)
        << result.output;
  }
}

TEST(ServeCliTest, RejectsUnknownPolicyAndFaultSite) {
  CliResult result = RunTool({"--policy", "drop-everything"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("unknown policy"), std::string::npos);
  result = RunTool({"--inject", "gradient"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("unknown serve fault site"), std::string::npos);
}

TEST(ServeCliTest, BurstTrafficUnderShedPolicyReportsStatusLine) {
  const CliResult result = RunTool(
      {"--dataset", "cornell_like", "--scale", "0.5", "--model", "SGC",
       "--epochs", "3", "--clients", "4", "--requests", "8", "--burst",
       "--queue-cap", "4", "--policy", "shed-newest", "--workers", "1",
       "--window-us", "0"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("policy shed-newest"), std::string::npos);
  EXPECT_NE(result.output.find("status: ok"), std::string::npos);
  EXPECT_NE(result.output.find("verification OK"), std::string::npos);
}

TEST(ServeCliTest, StallInjectionWithDeadlinesExpiresRequests) {
  const CliResult result = RunTool(
      {"--dataset", "cornell_like", "--scale", "0.5", "--model", "SGC",
       "--epochs", "3", "--clients", "2", "--requests", "6", "--workers", "1",
       "--window-us", "0", "--inject", "serve-worker-stall", "--inject-batch",
       "0", "--inject-stall-us", "50000", "--deadline-us", "5000"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("fault fired: serve-worker-stall at batch 0"),
            std::string::npos);
  EXPECT_NE(result.output.find("verification OK"), std::string::npos);
}

// Trains two checkpoints of the same architecture with different seeds,
// serves from the first, and hot-swaps to the second mid-traffic. Every ok
// response must bitwise match one of the two snapshots.
TEST(ServeCliTest, HotSwapFromCheckpointMidTraffic) {
  const std::string dir_a = ::testing::TempDir() + "/serve_cli_swap_a";
  const std::string dir_b = ::testing::TempDir() + "/serve_cli_swap_b";
  const std::string train_out_path =
      ::testing::TempDir() + "/serve_cli_swap_train.txt";
  for (const auto& [dir, seed] :
       {std::make_pair(dir_a, "1"), std::make_pair(dir_b, "9")}) {
    std::vector<const char*> train_argv = {
        "skipnode_train", "--dataset", "cornell_like", "--model",   "GCN",
        "--layers",       "3",         "--epochs",     "3",         "--seed",
        seed,             "--save-dir", dir.c_str()};
    std::FILE* train_out = std::fopen(train_out_path.c_str(), "w");
    ASSERT_NE(train_out, nullptr);
    const int train_code = RunCli(static_cast<int>(train_argv.size()),
                                  train_argv.data(), train_out);
    std::fclose(train_out);
    ASSERT_EQ(train_code, 0);
  }

  const CliResult result = RunTool(
      {"--dataset", "cornell_like", "--model", "GCN", "--layers", "3",
       "--load-dir", dir_a, "--swap-dir", dir_b, "--clients", "3",
       "--requests", "32", "--window-us", "200"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("hot-swap: now serving checkpoint"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("swaps 1"), std::string::npos);
  EXPECT_NE(result.output.find("verification OK"), std::string::npos);
}

TEST(ServeCliTest, HotSwapRejectsCorruptCandidateWithoutDowntime) {
  const std::string good = ::testing::TempDir() + "/serve_cli_swap_good";
  std::vector<const char*> train_argv = {
      "skipnode_train", "--dataset", "cornell_like", "--model", "GCN",
      "--layers",       "3",         "--epochs",     "3",       "--save-dir",
      good.c_str()};
  const std::string train_out_path =
      ::testing::TempDir() + "/serve_cli_swap_good_train.txt";
  std::FILE* train_out = std::fopen(train_out_path.c_str(), "w");
  ASSERT_NE(train_out, nullptr);
  ASSERT_EQ(RunCli(static_cast<int>(train_argv.size()), train_argv.data(),
                   train_out),
            0);
  std::fclose(train_out);

  // The candidate directory holds garbage instead of a checkpoint.
  const std::string corrupt = ::testing::TempDir() + "/serve_cli_swap_corrupt";
  std::remove((corrupt + "/manifest.txt").c_str());
  std::ignore = std::system(("mkdir -p " + corrupt).c_str());
  {
    std::ofstream manifest(corrupt + "/manifest.txt");
    manifest << "not a checkpoint\n";
  }

  const CliResult result = RunTool(
      {"--dataset", "cornell_like", "--model", "GCN", "--layers", "3",
       "--load-dir", good, "--swap-dir", corrupt, "--clients", "2",
       "--requests", "8"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("hot-swap rejected:"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("verification OK"), std::string::npos);
}

}  // namespace
}  // namespace skipnode
