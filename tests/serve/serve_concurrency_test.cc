// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// InferenceServer under real concurrency: N client threads, batching window
// on and off, multiple workers. The serving contract is that every
// request's result is bitwise what FrozenModel::Logits would return solo —
// independent of arrival order, batch composition, worker count, and the
// window setting. Runs under TSan via tools/check_tsan.sh.

#include "serve/inference_server.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/model_factory.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

Graph& TestGraph() {
  static Graph* const kGraph =
      new Graph(BuildDatasetByName("cornell_like", 1.0, 3));
  return *kGraph;
}

const FrozenModel& TestModel(const std::string& name) {
  static std::map<std::string, std::unique_ptr<FrozenModel>>* const kCache =
      new std::map<std::string, std::unique_ptr<FrozenModel>>();
  auto it = kCache->find(name);
  if (it == kCache->end()) {
    ModelConfig config;
    config.in_dim = TestGraph().feature_dim();
    config.hidden_dim = 8;
    config.out_dim = TestGraph().num_classes();
    config.num_layers = 3;
    config.dropout = 0.3f;
    Rng rng(7);
    auto model = MakeModel(name, config, rng);
    Rng split_rng(7);
    const Split split = RandomSplit(TestGraph(), 0.6, 0.2, split_rng);
    TrainNodeClassifier(*model, TestGraph(), split, StrategyConfig::None(),
                        {.options = {.epochs = 5, .seed = 7}});
    it = kCache
             ->emplace(name, std::make_unique<FrozenModel>(FrozenModel::Freeze(
                                 *model, TestGraph(), StrategyConfig::None())))
             .first;
  }
  return *it->second;
}

// A deterministic request load: client c's r-th request, seeded per client.
std::vector<int> RequestIds(int client, int request, int num_nodes) {
  Rng rng(1000 + 17 * static_cast<uint64_t>(client) + request);
  std::vector<int> ids(1 + static_cast<size_t>(rng.UniformInt(4)));
  for (int& id : ids) {
    id = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_nodes)));
  }
  return ids;
}

struct ClientResult {
  std::vector<int> ids;
  Matrix logits;
  std::vector<int> classes;
};

// Fires `clients` threads, each submitting `per_client` requests, and
// returns every fulfilled result keyed by (client, request).
std::vector<std::vector<ClientResult>> RunTraffic(const FrozenModel& model,
                                                  const ServeOptions& options,
                                                  int clients,
                                                  int per_client) {
  InferenceServer server(model, options);
  std::vector<std::vector<ClientResult>> results(
      static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    results[static_cast<size_t>(c)].resize(static_cast<size_t>(per_client));
    threads.emplace_back([&, c] {
      for (int r = 0; r < per_client; ++r) {
        ClientResult& result = results[static_cast<size_t>(c)]
                                      [static_cast<size_t>(r)];
        result.ids = RequestIds(c, r, model.num_nodes());
        PredictionHandle handle = server.Submit(result.ids);
        result.logits = handle.logits();
        result.classes = handle.classes();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.Shutdown();
  EXPECT_EQ(server.stats().requests,
            static_cast<int64_t>(clients) * per_client);
  return results;
}

void ExpectBitwiseSolo(const FrozenModel& model,
                       const std::vector<std::vector<ClientResult>>& results) {
  for (const auto& client : results) {
    for (const ClientResult& result : client) {
      ASSERT_EQ(result.logits.rows(), static_cast<int>(result.ids.size()));
      EXPECT_EQ(MaxAbsDiff(result.logits, model.Logits(result.ids)), 0.0f);
      EXPECT_EQ(result.classes, model.Predict(result.ids));
    }
  }
}

TEST(ServeConcurrencyTest, WindowOffIsOneRequestPerBatch) {
  const FrozenModel& model = TestModel("SGC");
  InferenceServer server(model, {.workers = 1, .batch_window_us = 0});
  std::vector<PredictionHandle> handles;
  for (int r = 0; r < 12; ++r) {
    handles.push_back(server.Submit(RequestIds(0, r, model.num_nodes())));
  }
  for (const PredictionHandle& handle : handles) handle.logits();
  server.Shutdown();
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, 12);
  EXPECT_EQ(stats.batches, 12);  // No window: never coalesced.
}

TEST(ServeConcurrencyTest, ManyClientsWindowOffBitwise) {
  const FrozenModel& model = TestModel("SGC");
  ExpectBitwiseSolo(
      model, RunTraffic(model, {.workers = 2, .batch_window_us = 0},
                        /*clients=*/8, /*per_client=*/6));
}

TEST(ServeConcurrencyTest, ManyClientsWindowOnBitwiseAndCoalesces) {
  const FrozenModel& model = TestModel("SGC");
  InferenceServer server(
      model, {.workers = 1, .max_batch_rows = 64, .batch_window_us = 2000});
  constexpr int kClients = 8, kPerClient = 6;
  std::vector<std::vector<ClientResult>> results(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    results[static_cast<size_t>(c)].resize(kPerClient);
    threads.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        ClientResult& result =
            results[static_cast<size_t>(c)][static_cast<size_t>(r)];
        result.ids = RequestIds(c, r, model.num_nodes());
        PredictionHandle handle = server.Submit(result.ids);
        result.logits = handle.logits();
        result.classes = handle.classes();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.Shutdown();
  ExpectBitwiseSolo(model, results);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  // Coalescing is timing-dependent, but the accounting must balance.
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GE(stats.batches, 1);
}

TEST(ServeConcurrencyTest, GatherPathBackboneServesBitwiseToo) {
  const FrozenModel& model = TestModel("GCN");
  ExpectBitwiseSolo(
      model, RunTraffic(model, {.workers = 2, .batch_window_us = 500},
                        /*clients=*/4, /*per_client=*/4));
}

TEST(ServeConcurrencyTest, ResultsIndependentOfArrivalOrderAndWindow) {
  const FrozenModel& model = TestModel("SGC");
  // Same request population under three very different serving regimes.
  const auto a = RunTraffic(model, {.workers = 1, .batch_window_us = 0},
                            /*clients=*/6, /*per_client=*/4);
  const auto b = RunTraffic(
      model, {.workers = 3, .max_batch_rows = 16, .batch_window_us = 1500},
      /*clients=*/6, /*per_client=*/4);
  const auto c = RunTraffic(
      model, {.workers = 2, .max_batch_rows = 4, .batch_window_us = 300},
      /*clients=*/6, /*per_client=*/4);
  for (size_t ci = 0; ci < a.size(); ++ci) {
    for (size_t r = 0; r < a[ci].size(); ++r) {
      EXPECT_EQ(MaxAbsDiff(a[ci][r].logits, b[ci][r].logits), 0.0f);
      EXPECT_EQ(MaxAbsDiff(a[ci][r].logits, c[ci][r].logits), 0.0f);
      EXPECT_EQ(a[ci][r].classes, b[ci][r].classes);
      EXPECT_EQ(a[ci][r].classes, c[ci][r].classes);
    }
  }
}

TEST(ServeConcurrencyTest, ShutdownDrainsEveryPendingRequest) {
  const FrozenModel& model = TestModel("SGC");
  auto server = std::make_unique<InferenceServer>(
      model, ServeOptions{.workers = 1, .batch_window_us = 100});
  std::vector<PredictionHandle> handles;
  std::vector<std::vector<int>> ids;
  for (int r = 0; r < 20; ++r) {
    ids.push_back(RequestIds(3, r, model.num_nodes()));
    handles.push_back(server->Submit(ids.back()));
  }
  server->Shutdown();
  const ServeStats stats = server->stats();
  EXPECT_EQ(stats.requests, 20);
  server.reset();  // Handles stay valid after the server dies.
  for (int r = 0; r < 20; ++r) {
    EXPECT_EQ(MaxAbsDiff(handles[static_cast<size_t>(r)].logits(),
                         model.Logits(ids[static_cast<size_t>(r)])),
              0.0f);
  }
}

TEST(ServeConcurrencyTest, ServerRunsWhileKernelsStayDeterministic) {
  // Server workers call the parallel Gemm while client threads hammer the
  // queue — the repo's first concurrent consumer of the thread pool. The
  // pool is pinned wide, so a batch whose work exceeds the grain fans out
  // and one that finds the pool busy runs inline; either way every response
  // must match a solo run (TSan checks the interleavings).
  SetParallelThreadCount(4);
  const FrozenModel& model = TestModel("GCNII");
  ExpectBitwiseSolo(
      model, RunTraffic(model, {.workers = 3, .batch_window_us = 800},
                        /*clients=*/6, /*per_client=*/5));
  SetParallelThreadCount(0);
}

}  // namespace
}  // namespace skipnode
