// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/serve_cli.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/telemetry.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/model_factory.h"
#include "serve/inference_server.h"
#include "tensor/ops.h"
#include "tools/cli_flags.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

constexpr char kUsage[] = R"(skipnode_serve: frozen-model inference service.

Model source:
  --load-dir DIR        freeze from a skipnode_train --save-dir checkpoint
                        (the manifest is validated against --model/--layers/
                        --hidden before loading)
  (no --load-dir)       train in-process for --epochs, then freeze
Model / data:
  --dataset NAME        built-in synthetic dataset          (default cora_like)
                        NAME may carry an @SIZE node-count suffix
                        ("arxiv_like@169k", "synth@1m"): streaming CSR path
  --scale F             dataset scale in (0, 1]             (default 1.0)
  --nodes N             node-count override (0 = spec size) (default 0)
  --avg-degree F        average-degree override (0 = spec edge/node ratio)
  --seed N              RNG seed for data/init/training     (default 1)
  --model NAME          GCN GAT ResGCN JKNet IncepGCN GCNII APPNP GPRGNN
                        GRAND SGC                           (default SGC)
  --layers N            convolution/propagation layers      (default 2)
  --hidden N            hidden width                        (default 64)
  --dropout F           training dropout rate               (default 0.5)
  --strategy NAME       none dropedge dropnode pairnorm skipconn skipnode-u
                        skipnode-b                          (default none)
  --rate F              strategy sampling rate rho          (default 0.5)
  --epochs N            training epochs before freezing     (default 50)
Traffic:
  --clients N           concurrent client threads           (default 4)
  --requests N          requests per client                 (default 64)
  --batch-ids N         node ids per request                (default 4)
  --burst               open-loop traffic: each client submits all its
                        requests before waiting on any response
  --deadline-us N       per-request deadline in microseconds; 0 = none
                        (default 0)
Server:
  --workers N           server worker threads               (default 1)
  --window-us N         batching window in microseconds; 0 disables
                        coalescing                          (default 500)
  --batch-rows N        soft cap on coalesced rows          (default 256)
  --queue-cap N         max queued requests; 0 = unbounded  (default 0)
  --policy NAME         block shed-newest shed-oldest       (default block)
Hot swap / fault injection:
  --swap-dir DIR        after traffic starts, validate the checkpoint at DIR
                        (same --model/--layers/--hidden) and hot-swap to it;
                        a corrupt candidate is rejected without downtime
  --inject SITE         serve-worker-stall | serve-batch-drop
  --inject-batch N      batch ordinal the fault fires at    (default 0)
  --inject-stall-us N   stall length for serve-worker-stall (default 10000)
  --help                print this message
)";

struct ServeCliOptions {
  ModelDataFlags md;
  std::string load_dir;
  int clients = 4;
  int requests = 64;
  int batch_ids = 4;
  int workers = 1;
  int window_us = 500;
  int batch_rows = 256;
  int queue_cap = 0;
  std::string policy = "block";
  bool burst = false;
  int64_t deadline_us = 0;
  std::string swap_dir;
  std::string inject_site;
  int64_t inject_batch = 0;
  int inject_stall_us = 10000;
};

bool ParseFlags(int argc, const char* const* argv, ServeCliOptions* options,
                std::FILE* out) {
  FlagParser parser(kUsage);
  options->md.RegisterOn(&parser);
  parser.AddString("--load-dir", &options->load_dir);
  parser.AddInt("--clients", &options->clients);
  parser.AddInt("--requests", &options->requests);
  parser.AddInt("--batch-ids", &options->batch_ids);
  parser.AddInt("--workers", &options->workers);
  parser.AddInt("--window-us", &options->window_us);
  parser.AddInt("--batch-rows", &options->batch_rows);
  parser.AddInt("--queue-cap", &options->queue_cap);
  parser.AddString("--policy", &options->policy);
  parser.AddBool("--burst", &options->burst);
  parser.AddInt64("--deadline-us", &options->deadline_us);
  parser.AddString("--swap-dir", &options->swap_dir);
  parser.AddString("--inject", &options->inject_site);
  parser.AddInt64("--inject-batch", &options->inject_batch);
  parser.AddInt("--inject-stall-us", &options->inject_stall_us);
  if (!parser.Parse(argc, argv, out) || !options->md.Validate(out)) {
    return false;
  }
  if (options->clients < 1 || options->requests < 1 ||
      options->batch_ids < 1) {
    std::fprintf(out, "error: --clients/--requests/--batch-ids must be >= 1\n");
    return false;
  }
  if (options->workers < 1 || options->batch_rows < 1) {
    std::fprintf(out, "error: --workers/--batch-rows must be >= 1\n");
    return false;
  }
  if (options->window_us < 0 || options->queue_cap < 0 ||
      options->deadline_us < 0) {
    std::fprintf(out,
                 "error: --window-us/--queue-cap/--deadline-us must be >= 0\n");
    return false;
  }
  return true;
}

std::vector<int> RequestIds(uint64_t seed, int client, int request, int count,
                            int num_nodes) {
  Rng rng(seed * 7919 + 131 * static_cast<uint64_t>(client) + request);
  std::vector<int> ids(static_cast<size_t>(count));
  for (int& id : ids) {
    id = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_nodes)));
  }
  return ids;
}

}  // namespace

int RunServeCli(int argc, const char* const* argv, std::FILE* out) {
  ServeCliOptions options;
  // Serve-flavoured defaults on the shared flag set.
  options.md.dataset = "cora_like";
  options.md.model = "SGC";
  options.md.epochs = 50;
  if (!ParseFlags(argc, argv, &options, out)) return 1;
  if (!KnownModelName(options.md.model)) {
    std::fprintf(out, "error: unknown model '%s'\n", options.md.model.c_str());
    return 1;
  }
  StrategyConfig strategy;
  if (!MakeStrategyFromName(options.md.strategy, options.md.rate, &strategy,
                            out)) {
    return 1;
  }

  std::unique_ptr<Graph> graph_owner;
  if (!options.md.BuildGraph(&graph_owner, out)) return 1;
  const Graph& graph = *graph_owner;
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = options.md.hidden;
  config.out_dim = graph.num_classes();
  config.num_layers = options.md.layers;
  config.dropout = options.md.dropout;

  OverloadPolicy policy;
  if (!ParseOverloadPolicy(options.policy, &policy)) {
    std::fprintf(out, "error: unknown policy '%s'\n", options.policy.c_str());
    return 1;
  }
  ServeFaultPlan fault;
  if (!options.inject_site.empty()) {
    fault.enabled = true;
    if (!ParseServeFaultSite(options.inject_site, &fault.site)) {
      std::fprintf(out, "error: unknown serve fault site '%s'\n",
                   options.inject_site.c_str());
      return 1;
    }
    fault.batch_index = options.inject_batch;
    fault.stall_us = options.inject_stall_us;
  }

  std::shared_ptr<FrozenModel> frozen;
  if (!options.load_dir.empty()) {
    std::string error;
    frozen = FrozenModel::TryFromCheckpoint(options.load_dir, options.md.model,
                                            config, graph, strategy, &error);
    if (frozen == nullptr) {
      std::fprintf(out, "error: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(out, "frozen %s from checkpoint %s\n",
                 frozen->model_name().c_str(), options.load_dir.c_str());
  } else {
    Rng rng(options.md.seed);
    auto model = MakeModel(options.md.model, config, rng);
    Rng split_rng(options.md.seed);
    Split split;
    if (!TryPublicSplit(graph, 10, std::max(10, graph.num_nodes() / 10),
                        std::max(10, graph.num_nodes() / 10), split_rng,
                        &split)) {
      std::fprintf(out,
                   "error: %d nodes are too few for the public split (a "
                   "train/val/test pool is empty)\n",
                   graph.num_nodes());
      return 1;
    }
    const TrainResult trained = TrainNodeClassifier(
        *model, graph, split, strategy,
        {.options = {.epochs = options.md.epochs, .seed = options.md.seed}});
    frozen = std::make_shared<FrozenModel>(
        FrozenModel::Freeze(*model, graph, strategy));
    std::fprintf(out, "trained %s for %d epochs (test acc %.1f%%), frozen\n",
                 frozen->model_name().c_str(), trained.epochs_run,
                 100.0 * trained.test_accuracy);
  }
  std::fprintf(out, "frozen model: %d nodes, %d classes, %s path\n",
               frozen->num_nodes(), frozen->num_classes(),
               frozen->has_linear_head() ? "linear-head" : "logit-gather");

  ServeOptions serve_options{.workers = options.workers,
                             .max_batch_rows = options.batch_rows,
                             .batch_window_us = options.window_us,
                             .max_queue_requests = options.queue_cap,
                             .overload_policy = policy,
                             .default_deadline_us = options.deadline_us};
  serve_options.fault = fault;
  InferenceServer server(frozen, serve_options);

  // Hot-swap watcher: once traffic is in flight, validate the candidate
  // checkpoint and retarget the server. A corrupt/mismatched candidate is
  // rejected without disturbing serving. The outcome message is printed
  // after the traffic report (stdio is not synchronised with the clients).
  std::shared_ptr<FrozenModel> swapped;
  std::string swap_report;
  std::thread watcher;
  if (!options.swap_dir.empty()) {
    watcher = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::string error;
      std::unique_ptr<FrozenModel> candidate = FrozenModel::TryFromCheckpoint(
          options.swap_dir, options.md.model, config, graph, strategy, &error);
      if (candidate == nullptr) {
        swap_report = "hot-swap rejected: " + error;
        return;
      }
      swapped = std::move(candidate);
      server.SwapModel(swapped);
      swap_report = "hot-swap: now serving checkpoint " + options.swap_dir;
    });
  }

  const int total_requests = options.clients * options.requests;
  std::vector<PredictionHandle> handles(static_cast<size_t>(total_requests));
  std::vector<int64_t> latencies_ns(static_cast<size_t>(total_requests), 0);

  const int64_t start_ns = MonotonicNanos();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(options.clients));
  for (int c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      const int base = c * options.requests;
      std::vector<int64_t> submit_ns(static_cast<size_t>(options.requests));
      for (int r = 0; r < options.requests; ++r) {
        const std::vector<int> ids =
            RequestIds(options.md.seed, c, r, options.batch_ids,
                       frozen->num_nodes());
        submit_ns[static_cast<size_t>(r)] = MonotonicNanos();
        handles[static_cast<size_t>(base + r)] = server.Submit(ids);
        if (!options.burst) {
          handles[static_cast<size_t>(base + r)].status();  // Closed loop.
          latencies_ns[static_cast<size_t>(base + r)] =
              MonotonicNanos() - submit_ns[static_cast<size_t>(r)];
        }
      }
      if (options.burst) {
        for (int r = 0; r < options.requests; ++r) {
          handles[static_cast<size_t>(base + r)].status();
          latencies_ns[static_cast<size_t>(base + r)] =
              MonotonicNanos() - submit_ns[static_cast<size_t>(r)];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const int64_t elapsed_ns = MonotonicNanos() - start_ns;
  if (watcher.joinable()) watcher.join();
  server.Shutdown();

  // Post-join verification: every kOk response must bitwise match one of
  // the snapshots the server ever held (primary, or the swap candidate).
  int64_t ok = 0, rejected = 0, deadline_exceeded = 0, invalid = 0;
  int total_mismatches = 0;
  std::vector<int64_t> ok_latencies_ns;
  ok_latencies_ns.reserve(static_cast<size_t>(total_requests));
  for (int c = 0; c < options.clients; ++c) {
    for (int r = 0; r < options.requests; ++r) {
      const PredictionHandle& handle =
          handles[static_cast<size_t>(c * options.requests + r)];
      switch (handle.status()) {
        case ServeStatus::kOk: {
          ++ok;
          ok_latencies_ns.push_back(
              latencies_ns[static_cast<size_t>(c * options.requests + r)]);
          const std::vector<int> ids =
              RequestIds(options.md.seed, c, r, options.batch_ids,
                         frozen->num_nodes());
          const bool matches_primary =
              MaxAbsDiff(handle.logits(), frozen->Logits(ids)) == 0.0f;
          const bool matches_swapped =
              swapped != nullptr &&
              MaxAbsDiff(handle.logits(), swapped->Logits(ids)) == 0.0f;
          if (!matches_primary && !matches_swapped) ++total_mismatches;
          break;
        }
        case ServeStatus::kDeadlineExceeded:
          ++deadline_exceeded;
          break;
        case ServeStatus::kInvalidArgument:
          ++invalid;
          break;
        default:
          ++rejected;  // kRejected / kShutdown.
          break;
      }
    }
  }

  const ServeStats stats = server.stats();
  std::sort(ok_latencies_ns.begin(), ok_latencies_ns.end());
  const auto percentile = [&](double p) {
    if (ok_latencies_ns.empty()) return 0.0;
    const size_t index = std::min(
        ok_latencies_ns.size() - 1,
        static_cast<size_t>(p * static_cast<double>(ok_latencies_ns.size())));
    return static_cast<double>(ok_latencies_ns[index]) / 1e3;
  };
  std::fprintf(out,
               "served %lld requests (%lld rows) from %d clients in %.1f ms: "
               "%.0f req/s\n",
               static_cast<long long>(stats.requests),
               static_cast<long long>(stats.rows), options.clients,
               static_cast<double>(elapsed_ns) / 1e6,
               1e9 * static_cast<double>(stats.requests) /
                   static_cast<double>(elapsed_ns));
  std::fprintf(out, "latency p50 %.0f us | p99 %.0f us (ok responses)\n",
               percentile(0.5), percentile(0.99));
  std::fprintf(out, "batches %lld (%.2f requests/batch, window %d us)\n",
               static_cast<long long>(stats.batches),
               static_cast<double>(stats.requests) /
                   static_cast<double>(std::max<int64_t>(stats.batches, 1)),
               options.window_us);
  std::fprintf(out,
               "status: ok %lld | rejected %lld | deadline %lld | "
               "invalid %lld (policy %s, queue cap %d, peak %lld)\n",
               static_cast<long long>(ok), static_cast<long long>(rejected),
               static_cast<long long>(deadline_exceeded),
               static_cast<long long>(invalid), OverloadPolicyName(policy),
               options.queue_cap, static_cast<long long>(stats.queue_peak));
  for (const ServeFaultEvent& event : server.fault_events()) {
    std::fprintf(out, "fault fired: %s at batch %lld\n",
                 ServeFaultSiteName(event.site),
                 static_cast<long long>(event.batch_index));
  }
  if (!swap_report.empty()) {
    std::fprintf(out, "%s (swaps %lld)\n", swap_report.c_str(),
                 static_cast<long long>(stats.swaps));
  }

  if (total_mismatches > 0) {
    std::fprintf(out, "verification FAILED: %d mismatched responses\n",
                 total_mismatches);
    return 1;
  }
  std::fprintf(out, "verification OK: every ok response bitwise matches a "
                    "frozen-model snapshot\n");
  return 0;
}

}  // namespace skipnode
