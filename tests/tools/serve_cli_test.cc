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

#include "base/rng.h"
#include "tools/cli.h"

namespace skipnode {
namespace {

struct CliResult {
  int exit_code;
  std::string output;
};

using CliMain = int (*)(int, const char* const*, std::FILE*);

// Runs skipnode_serve (or, with main = RunCli, skipnode_train) in process.
CliResult RunTool(const std::vector<std::string>& args,
                  CliMain main = RunServeCli) {
  std::vector<const char*> argv = {"skipnode_serve"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());

  const std::string path = ::testing::TempDir() + "/serve_cli_output.txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  EXPECT_NE(out, nullptr);
  const int code = main(static_cast<int>(argv.size()), argv.data(), out);
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
  EXPECT_NE(result.output.find("verification OK"), std::string::npos);
}

TEST(ServeCliTest, ServesFromTrainCliCheckpoint) {
  // End-to-end interop: skipnode_train --save-dir, then skipnode_serve
  // --load-dir with a matching architecture.
  const std::string dir = ::testing::TempDir() + "/serve_cli_ckpt";
  ASSERT_EQ(RunTool({"--dataset", "cornell_like", "--model", "GCN",
                     "--layers", "3", "--epochs", "3", "--save-dir", dir},
                    RunCli)
                .exit_code,
            0);

  const CliResult result = RunTool(
      {"--dataset", "cornell_like", "--model", "GCN", "--layers", "3",
       "--load-dir", dir, "--clients", "2", "--requests", "4"});
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("from checkpoint"), std::string::npos);
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

// A GAT width the heads cannot split and a graph too small for the public
// split exit 1 with an error line instead of aborting.
TEST(ServeCliTest, RejectsGatWidthAndGraphTooSmallForSplit) {
  CliResult result = RunTool({"--model", "GAT", "--hidden", "30"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: --hidden must be a multiple of 4 for "
                               "GAT"),
            std::string::npos)
      << result.output;
  result = RunTool({"--dataset", "cornell_like", "--scale", "0.01"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error: 40 nodes are too few for the public "
                               "split"),
            std::string::npos)
      << result.output;
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

// The upper bounds: a well-formed but absurd size exits 1 with an error
// instead of overflowing a count, exhausting the allocator or hanging.
TEST(ServeCliTest, RejectsSizesPastTheirBounds) {
  struct Case {
    std::vector<std::string> flags;
    std::string message;
    bool serve_only;
  };
  const std::vector<Case> cases = {
      {{"--clients", "2147483647"}, "error: --clients/--workers must be <=",
       true},
      {{"--workers", "1025"}, "error: --clients/--workers must be <=", true},
      {{"--requests", "2147483647"},
       "error: --clients x --requests x --batch-ids must be <=", true},
      {{"--batch-ids", "2147483647"},
       "error: --clients x --requests x --batch-ids must be <=", true},
      {{"--window-us", "2147483647"},
       "error: --window-us/--inject-stall-us must be <=", true},
      {{"--inject-stall-us", "10000001"},
       "error: --window-us/--inject-stall-us must be <=", true},
      {{"--layers", "2147483647"}, "error: --layers must be <= 1024", false},
      {{"--hidden", "16385"}, "--hidden <= 16384", false},
      {{"--epochs", "1000001"}, "--epochs <= 1000000", false},
      {{"--nodes", "99999999999"},
       "error: the node count (--nodes or @SIZE) must be <=", false},
      {{"--avg-degree", "2147483647"}, "and --avg-degree <= 200", false},
      {{"--dataset", "synth@2000m"},
       "error: the node count (--nodes or @SIZE) must be <=", false}};
  for (const Case& c : cases) {
    std::vector<std::string> args = {"--dataset", "cora_like", "--scale",
                                     "0.1", "--epochs", "1"};
    args.insert(args.end(), c.flags.begin(), c.flags.end());
    for (const CliMain main : {RunServeCli, RunCli}) {
      if (c.serve_only && main == RunCli) continue;
      const CliResult result = RunTool(args, main);
      EXPECT_EQ(result.exit_code, 1) << c.flags[0];
      EXPECT_NE(result.output.find(c.message), std::string::npos)
          << result.output;
    }
  }
}

// Seeded argument vectors through both CLIs, the pattern of
// IoMalformedTest.SeededMutationsNeverAbort applied to argv: a cora_like
// --scale 0.1 --epochs 1 run plus one to three flags drawn from the
// parsers, with hostile values (negative, non-finite, past int range, not a
// number, empty) and a few valid names. Every vector must exit 0 or 1; an
// abort fails the whole binary.
TEST(ServeCliTest, SeededArgumentVectorsNeverAbort) {
  const std::vector<std::string> shared = {
      "--dataset", "--scale",    "--seed",   "--model",
      "--layers",  "--hidden",   "--dropout", "--strategy",
      "--rate",    "--epochs",   "--nodes",  "--avg-degree"};
  const std::vector<std::string> train_only = {
      "--edges",       "--features",      "--labels",      "--lr",
      "--weight-decay", "--log-every",    "--metrics-out", "--split",
      "--save-dir",    "--load-dir",      "--check-every", "--max-rollbacks",
      "--lr-backoff",  "--grad-clip",     "--inject",      "--inject-epoch",
      "--inject-kind", "--sample-fanout", "--batch-size"};
  const std::vector<std::string> serve_only = {
      "--load-dir",   "--clients",      "--requests",     "--batch-ids",
      "--workers",    "--window-us",    "--batch-rows",   "--queue-cap",
      "--policy",     "--deadline-us",  "--swap-dir",     "--inject",
      "--inject-batch", "--inject-stall-us"};
  const std::vector<std::string> values = {
      "-1",         "nan",        "inf",        "2147483647", "99999999999",
      "abc",        "",           "0",          "1",          "2",
      "0.5",        "-0",         "1e-30",      "GCN",        "GAT",
      "SGC",        "skipnode-u", "dropedge",   "random",     "activation",
      "shed-newest", "serve-worker-stall", "synth@1k"};
  // Flags that write get a scratch path or an unusable one, never a bare
  // value: "--save-dir abc" would create ./abc.
  const std::vector<std::string> write_paths = {
      ::testing::TempDir() + "/serve_cli_argv_out", "",
      "/nonexistent-dir/out"};

  constexpr int kIterations = 400;
  Rng rng(37);
  int succeeded = 0;
  for (int i = 0; i < kIterations; ++i) {
    const bool serve = i % 2 == 1;
    std::vector<std::string> pool = shared;
    const std::vector<std::string>& own = serve ? serve_only : train_only;
    pool.insert(pool.end(), own.begin(), own.end());
    std::vector<std::string> args = {"--dataset", "cora_like", "--scale",
                                     "0.1", "--epochs", "1"};
    const uint64_t flags = 1 + rng.UniformInt(3);
    for (uint64_t f = 0; f < flags; ++f) {
      if (rng.Bernoulli(0.1)) {
        args.push_back(serve ? "--burst" : "--health");
        continue;
      }
      const std::string& flag = pool[rng.UniformInt(pool.size())];
      const bool writes = flag == "--metrics-out" || flag == "--save-dir";
      args.push_back(flag);
      args.push_back(writes ? write_paths[rng.UniformInt(write_paths.size())]
                            : values[rng.UniformInt(values.size())]);
    }
    const CliResult result = RunTool(args, serve ? RunServeCli : RunCli);
    std::string joined;
    for (const std::string& arg : args) joined += " '" + arg + "'";
    EXPECT_TRUE(result.exit_code == 0 || result.exit_code == 1)
        << (serve ? "skipnode_serve" : "skipnode_train") << joined;
    if (result.exit_code == 0) ++succeeded;
  }
  // The pass reaches training and serving, not only the flag errors.
  EXPECT_GT(succeeded, kIterations / 10);
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
  for (const auto& [dir, seed] :
       {std::make_pair(dir_a, "1"), std::make_pair(dir_b, "9")}) {
    ASSERT_EQ(RunTool({"--dataset", "cornell_like", "--model", "GCN",
                       "--layers", "3", "--epochs", "3", "--seed", seed,
                       "--save-dir", dir},
                      RunCli)
                  .exit_code,
              0);
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
  ASSERT_EQ(RunTool({"--dataset", "cornell_like", "--model", "GCN",
                     "--layers", "3", "--epochs", "3", "--save-dir", good},
                    RunCli)
                .exit_code,
            0);

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
