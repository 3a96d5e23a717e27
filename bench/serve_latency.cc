// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Serving latency/throughput under synthetic concurrent traffic (DESIGN
// §11). One SGC is trained once and frozen; then:
//   * eval_baseline — the pre-FrozenModel serving story: every request
//     re-runs the full eval-mode forward (EvaluateLogits over the whole
//     graph) and slices its rows. One request at a time, so this is the
//     O(graph)-per-request floor the serving layer must beat.
//   * serve — an InferenceServer fed by 1..8 (smoke) / 1..16 (paper)
//     client threads, each submitting fixed-size node-id batches through
//     the MPMC queue with the coalescing window on, plus a window-off cell
//     at the top client count to isolate what batching buys.
// Every cell records throughput_rps plus p50_us/p99_us client-observed
// latency as standard JSONL records; tools/validate_bench_jsonl.py asserts
// the 8-client batched throughput >= 2x the baseline.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "base/result_table.h"
#include "base/telemetry.h"
#include "bench_common.h"
#include "serve/inference_server.h"
#include "tensor/ops.h"

namespace skipnode {
namespace {

constexpr int kBatchIds = 4;  // node ids per request

// Deterministic per-(client, request) node-id batch; same stream the CLI
// traffic generator uses so the two surfaces exercise identical requests.
std::vector<int> RequestIds(int client, int request, int num_nodes) {
  Rng rng(9173 + 131 * static_cast<uint64_t>(client) + request);
  std::vector<int> ids(kBatchIds);
  for (int& id : ids) {
    id = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_nodes)));
  }
  return ids;
}

double Percentile(std::vector<int64_t>& latencies_ns, double p) {
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const size_t index =
      std::min(latencies_ns.size() - 1,
               static_cast<size_t>(p * static_cast<double>(latencies_ns.size())));
  return static_cast<double>(latencies_ns[index]) / 1e3;
}

struct TrafficResult {
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double requests_per_batch = 0.0;
};

// Fires `clients` threads at a fresh server, each submitting
// `requests_per_client` batches and blocking on the result. Latency is
// client-observed: Submit() to logits() ready.
TrafficResult RunTraffic(const FrozenModel& frozen, int clients,
                         int requests_per_client, int window_us) {
  InferenceServer server(frozen, {.workers = 1,
                                  .max_batch_rows = 256,
                                  .batch_window_us = window_us});
  const int total = clients * requests_per_client;
  std::vector<int64_t> latencies_ns(static_cast<size_t>(total), 0);

  const int64_t start_ns = MonotonicNanos();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < requests_per_client; ++r) {
        const std::vector<int> ids =
            RequestIds(c, r, frozen.num_nodes());
        const int64_t submit_ns = MonotonicNanos();
        PredictionHandle handle = server.Submit(ids);
        (void)handle.logits();
        latencies_ns[static_cast<size_t>(c * requests_per_client + r)] =
            MonotonicNanos() - submit_ns;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const int64_t elapsed_ns = MonotonicNanos() - start_ns;
  server.Shutdown();

  const ServeStats stats = server.stats();
  TrafficResult result;
  result.throughput_rps =
      1e9 * static_cast<double>(total) / static_cast<double>(elapsed_ns);
  result.p50_us = Percentile(latencies_ns, 0.5);
  result.p99_us = Percentile(latencies_ns, 0.99);
  result.requests_per_batch =
      static_cast<double>(stats.requests) /
      static_cast<double>(std::max<int64_t>(stats.batches, 1));
  return result;
}

struct OverloadResult {
  double throughput_rps = 0.0;  // completed (ok) requests per second
  double p99_us = 0.0;          // over completed requests only
  double shed_rate = 0.0;       // rejected / submitted
  double completion_rate = 0.0;
  int64_t queue_peak = 0;
};

constexpr int kOverloadIds = 64;  // ids per overload request: service-heavy

// Overload cell: burst open-loop traffic into a bounded queue. Every client
// submits its whole request list back to back (id vectors precomputed, so
// submission cost is negligible against the 64-row service cost), then
// waits on its handles in submission order. Under the shed policies the
// queue caps at `capacity` and overflow is rejected structurally; under
// kBlock, Submit itself backpressures. No fault injection here — survivors'
// latency must reflect the policy, not a planted stall (DESIGN §12).
OverloadResult RunOverload(const FrozenModel& frozen, int clients,
                           int requests_per_client, OverloadPolicy policy,
                           int capacity) {
  InferenceServer server(frozen, {.workers = 1,
                                  .max_batch_rows = 256,
                                  .batch_window_us = 0,
                                  .max_queue_requests = capacity,
                                  .overload_policy = policy});
  const int total = clients * requests_per_client;
  std::vector<std::vector<std::vector<int>>> ids(
      static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    ids[static_cast<size_t>(c)].reserve(
        static_cast<size_t>(requests_per_client));
    for (int r = 0; r < requests_per_client; ++r) {
      Rng rng(5077 + 131 * static_cast<uint64_t>(c) + r);
      std::vector<int> request(kOverloadIds);
      for (int& id : request) {
        id = static_cast<int>(
            rng.UniformInt(static_cast<uint64_t>(frozen.num_nodes())));
      }
      ids[static_cast<size_t>(c)].push_back(std::move(request));
    }
  }

  std::vector<std::vector<int64_t>> ok_latencies_ns(
      static_cast<size_t>(clients));
  const int64_t start_ns = MonotonicNanos();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<PredictionHandle> handles;
      std::vector<int64_t> submit_ns;
      handles.reserve(static_cast<size_t>(requests_per_client));
      submit_ns.reserve(static_cast<size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        submit_ns.push_back(MonotonicNanos());
        handles.push_back(
            server.Submit(ids[static_cast<size_t>(c)][static_cast<size_t>(r)]));
      }
      for (int r = 0; r < requests_per_client; ++r) {
        if (handles[static_cast<size_t>(r)].status() == ServeStatus::kOk) {
          ok_latencies_ns[static_cast<size_t>(c)].push_back(
              MonotonicNanos() - submit_ns[static_cast<size_t>(r)]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const int64_t elapsed_ns = MonotonicNanos() - start_ns;
  server.Shutdown();

  std::vector<int64_t> completed_ns;
  for (const auto& client_latencies : ok_latencies_ns) {
    completed_ns.insert(completed_ns.end(), client_latencies.begin(),
                        client_latencies.end());
  }
  const ServeStats stats = server.stats();
  OverloadResult result;
  result.throughput_rps = 1e9 * static_cast<double>(completed_ns.size()) /
                          static_cast<double>(elapsed_ns);
  result.p99_us =
      completed_ns.empty() ? 0.0 : Percentile(completed_ns, 0.99);
  result.shed_rate = static_cast<double>(stats.rejected) /
                     static_cast<double>(total);
  result.completion_rate = static_cast<double>(completed_ns.size()) /
                           static_cast<double>(total);
  result.queue_peak = stats.queue_peak;
  return result;
}

// The one-request-at-a-time floor: each request re-runs the full eval-mode
// forward (what every caller did before FrozenModel existed) and gathers
// its rows from the fresh logits table.
TrafficResult RunEvalBaseline(Model& model, const Graph& graph,
                              const StrategyConfig& strategy, int requests) {
  std::vector<int64_t> latencies_ns(static_cast<size_t>(requests), 0);
  const int64_t start_ns = MonotonicNanos();
  for (int r = 0; r < requests; ++r) {
    const std::vector<int> ids = RequestIds(0, r, graph.num_nodes());
    const int64_t submit_ns = MonotonicNanos();
    const Matrix logits = EvaluateLogits(model, graph, strategy);
    const Matrix rows = GatherRows(logits, ids);
    (void)rows;
    latencies_ns[static_cast<size_t>(r)] = MonotonicNanos() - submit_ns;
  }
  const int64_t elapsed_ns = MonotonicNanos() - start_ns;

  TrafficResult result;
  result.throughput_rps =
      1e9 * static_cast<double>(requests) / static_cast<double>(elapsed_ns);
  result.p50_us = Percentile(latencies_ns, 0.5);
  result.p99_us = Percentile(latencies_ns, 0.99);
  result.requests_per_batch = 1.0;
  return result;
}

void Main() {
  bench::Begin("serve");

  const Graph graph =
      BuildDatasetByName("cora_like", bench::Pick(0.5, 1.0), /*seed=*/21);
  const StrategyConfig strategy = StrategyConfig::None();

  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = bench::Pick(32, 64);
  config.out_dim = graph.num_classes();
  config.num_layers = 2;
  config.dropout = 0.5f;

  Rng rng(21);
  auto model = MakeModel("SGC", config, rng);
  Rng split_rng(21);
  const Split split = PublicSplit(graph, 20, 300, 500, split_rng);
  const TrainResult trained = TrainNodeClassifier(
      *model, graph, split, strategy,
      {.options = {.epochs = bench::Pick(10, 50), .seed = 21}});
  const FrozenModel frozen = FrozenModel::Freeze(*model, graph, strategy);
  std::printf("SGC on cora_like: %d nodes, %d classes, test acc %.1f%%, "
              "%d ids/request\n\n",
              frozen.num_nodes(), frozen.num_classes(),
              100.0 * trained.test_accuracy, kBatchIds);

  ResultTable table(
      {"cell", "clients", "window_us", "req/s", "p50_us", "p99_us",
       "req/batch"});
  table.StreamTo(stdout);

  const auto add_row = [&](const std::string& cell, int clients,
                           int window_us, const TrafficResult& r) {
    table.AddRow({cell, std::to_string(clients), std::to_string(window_us),
                  ResultTable::Cell(r.throughput_rps, 0),
                  ResultTable::Cell(r.p50_us, 0),
                  ResultTable::Cell(r.p99_us, 0),
                  ResultTable::Cell(r.requests_per_batch, 2)});
  };
  const auto record = [](bench::CellRecorder& recorder,
                         const TrafficResult& r) {
    recorder.Record("throughput_rps", r.throughput_rps);
    recorder.Record("p50_us", r.p50_us);
    recorder.Record("p99_us", r.p99_us);
  };

  // Baseline: one full forward per request, serially.
  {
    bench::CellRecorder recorder("eval_baseline");
    recorder.Param("clients", 1).Param("requests", bench::Pick(8, 32));
    const TrafficResult r =
        RunEvalBaseline(*model, graph, strategy, bench::Pick(8, 32));
    record(recorder, r);
    add_row("eval_baseline", 1, 0, r);
  }

  // Server sweep: coalescing window on, rising client pressure. 8 clients
  // is the cell the validator holds to >= 2x the baseline throughput.
  const std::vector<int> client_counts =
      bench::PaperScale() ? std::vector<int>{1, 2, 4, 8, 16}
                          : std::vector<int>{1, 2, 4, 8};
  const int requests_per_client = bench::Pick(16, 64);
  const int window_us = 200;
  for (const int clients : client_counts) {
    bench::CellRecorder recorder("serve");
    recorder.Param("clients", clients)
        .Param("requests", clients * requests_per_client)
        .Param("window_us", window_us)
        .Param("workers", 1);
    const TrafficResult r =
        RunTraffic(frozen, clients, requests_per_client, window_us);
    record(recorder, r);
    add_row("serve", clients, window_us, r);
  }

  // Window off at top pressure: what the coalescing window buys.
  {
    const int clients = client_counts.back();
    bench::CellRecorder recorder("serve_nowindow");
    recorder.Param("clients", clients)
        .Param("requests", clients * requests_per_client)
        .Param("window_us", 0)
        .Param("workers", 1);
    const TrafficResult r =
        RunTraffic(frozen, clients, requests_per_client, /*window_us=*/0);
    record(recorder, r);
    add_row("serve_nowindow", clients, 0, r);
  }

  // Overload cells (DESIGN §12): burst traffic into a bounded queue, one
  // cell per policy at a tight capacity plus one shed cell provisioned
  // above the total load (the control: no request may shed below capacity).
  ResultTable overload_table({"cell", "policy", "capacity", "req/s", "p99_us",
                              "shed_rate", "completed", "queue_peak"});
  std::printf("\n");
  overload_table.StreamTo(stdout);
  const int overload_clients = 8;
  const int overload_per_client = bench::Pick(32, 128);
  const int overload_total = overload_clients * overload_per_client;
  const int tight_cap = 8;
  const auto run_overload_cell = [&](OverloadPolicy policy, int capacity) {
    bench::CellRecorder recorder("serve_overload");
    recorder.Param("policy", OverloadPolicyName(policy))
        .Param("capacity", capacity)
        .Param("clients", overload_clients)
        .Param("requests", overload_total);
    const OverloadResult r = RunOverload(frozen, overload_clients,
                                         overload_per_client, policy,
                                         capacity);
    recorder.Record("throughput_rps", r.throughput_rps);
    recorder.Record("p99_us", r.p99_us);
    recorder.Record("shed_rate", r.shed_rate);
    recorder.Record("completion_rate", r.completion_rate);
    recorder.Record("queue_peak", static_cast<double>(r.queue_peak));
    overload_table.AddRow(
        {"serve_overload", OverloadPolicyName(policy),
         std::to_string(capacity), ResultTable::Cell(r.throughput_rps, 0),
         ResultTable::Cell(r.p99_us, 0), ResultTable::Cell(r.shed_rate, 3),
         ResultTable::Cell(r.completion_rate, 3),
         std::to_string(r.queue_peak)});
  };
  run_overload_cell(OverloadPolicy::kBlock, tight_cap);
  run_overload_cell(OverloadPolicy::kShedNewest, tight_cap);
  run_overload_cell(OverloadPolicy::kShedOldest, tight_cap);
  run_overload_cell(OverloadPolicy::kShedNewest, overload_total);

  std::printf(
      "\nExpected shape: the server amortises the precomputed tables, so "
      "every serve cell beats eval_baseline by orders of magnitude "
      "(baseline re-runs the full forward per request); with the window on "
      "req/batch grows with client pressure while p50 stays around the "
      "window length. Overload: at capacity %d the shed policies keep "
      "queue_peak bounded and reject the overflow (shed_rate > 0) so "
      "survivors' p99 stays at most the block policy's (which completes "
      "everything by backpressuring Submit); the above-capacity control "
      "cell sheds nothing.\n",
      tight_cap);
}

}  // namespace
}  // namespace skipnode

int main() {
  skipnode::Main();
  return 0;
}
