// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// The true-scale sweep (DESIGN §13/§15): streams DC-SBM graphs straight into
// CSR at 100k (smoke) / 1M (paper) nodes and trains GCNs on them, recording
// wall time, the resident footprint, and the process peak RSS. Panels:
//
//   * sampled_train — minibatch neighbor-sampled training (DESIGN §15) on
//     the big graph: L=3 with fanout 4, batch 128, SkipNode-U rho=0.5 so the
//     skip-aware frontier pruning fires. Records ms_per_epoch (one pass over
//     the train split) and rss_over_footprint against the graph + sampler
//     footprint; the validator's check_sampled rule holds the epoch time to
//     <= 0.5x the full-batch stream_train cell and the RSS ratio to <= 2x.
//     The peak includes the trainer's full-graph evaluations at the first
//     and last epoch. It runs FIRST: ru_maxrss is a process-lifetime
//     high-water mark, so the sampled cell's peak is only attributable while
//     the full-batch working set has not yet been resident.
//   * stream_train — the headline full-batch memory cell on the same graph.
//     Records rss_over_footprint = peak_rss / MemoryFootprintBytes(); the
//     validator's check_scale rule holds it to <= 2x (the
//     streaming-construction acceptance bound).
//   * depth_sweep — nodes x layers x rho: a mid-sized graph trained at
//     increasing depth with SkipNode off/on, exposing which kernels stop
//     scaling first (per-kernel telemetry rides along in each JSONL record).
//   * sampled_accuracy — full vs sampled training to convergence on the
//     mid-sized graph; the validator holds the sampled val accuracy to
//     within 0.15 of full-batch.
//
// Every cell trains through TrainNodeClassifier, the loop every experiment
// runs. ms_per_epoch is the mean of its per-epoch training phases (forward,
// which includes minibatch sampling, + backward + step, plus the health
// scans under SKIPNODE_BENCH_GUARD) from TrainRun::collect_metrics;
// evaluation is excluded. The workspace pool is trimmed between cells so
// one cell's buffers don't count against the next cell's budget.

#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/telemetry.h"
#include "bench_common.h"
#include "graph/sampler.h"
#include "tensor/pool.h"

namespace skipnode {
namespace {

int64_t PeakRssBytes() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

ModelConfig ScaleConfig(const Graph& graph, int num_layers, int hidden) {
  ModelConfig config;
  config.in_dim = graph.feature_dim();
  config.hidden_dim = hidden;
  config.out_dim = graph.num_classes();
  config.num_layers = num_layers;
  // Dropout stays 0 at scale: the n x d mask and its Hadamard copy would
  // double the feature-sized working set for no benchmarking value.
  config.dropout = 0.0f;
  return config;
}

// Trains a GCN for `epochs` epochs through TrainNodeClassifier — full-batch,
// or minibatch neighbor-sampled (DESIGN §15) when `sampling` is enabled —
// and returns its mean training time per epoch (ms), evaluation excluded.
// Evaluation runs only at the first and last epoch.
double TrainMsPerEpoch(const Graph& graph, const Split& split,
                       const StrategyConfig& strategy, int num_layers,
                       int hidden, int epochs, SamplingOptions sampling = {}) {
  Rng rng(3);
  auto model = MakeModel("GCN", ScaleConfig(graph, num_layers, hidden), rng);
  TrainRun run{.options = {.epochs = epochs, .eval_every = epochs, .seed = 3},
               .collect_metrics = true,
               .sampling = std::move(sampling)};
  run.health.enabled = bench::Config().guard;
  return bench::TrainMillisPerEpoch(
      TrainNodeClassifier(*model, graph, split, strategy, run));
}

void RecordRss(bench::CellRecorder& recorder, int64_t footprint_bytes,
               double* ratio_out) {
  const int64_t peak = PeakRssBytes();
  const double ratio =
      static_cast<double>(peak) / static_cast<double>(footprint_bytes);
  recorder.Record("footprint_bytes", static_cast<double>(footprint_bytes));
  recorder.Record("peak_rss_bytes", static_cast<double>(peak));
  recorder.Record("rss_over_footprint", ratio);
  if (ratio_out != nullptr) *ratio_out = ratio;
}

// Panel 1: the big streaming graph, built once and shared by the sampled
// and full-batch training cells. Degree is high by design: the memory
// budget is relative to the resident graph, so the adjacency has to
// outweigh the training working set (DESIGN §13 derives the bound). Scoped
// in its own frame so the big graph is released before the mid-sized
// panels run.
void RunBigGraphPanel(int64_t big_nodes, double big_degree, int epochs) {
  DatasetRequest request;
  request.name = "synth";
  request.seed = 12;
  request.nodes = big_nodes;
  request.avg_degree = big_degree;
  const int64_t build_start_ns = MonotonicNanos();
  Graph graph = DatasetRegistry::Global().Build(request);
  const double build_ms =
      static_cast<double>(MonotonicNanos() - build_start_ns) / 1e6;
  Rng split_rng(12);
  Split split = PublicSplit(graph, 20, 300, 500, split_rng);

  const auto stamp_graph = [&](bench::CellRecorder& recorder) -> auto& {
    return recorder.Param("nodes", big_nodes)
        .Param("avg_degree", big_degree)
        .Param("hidden", 8)
        .Param("epochs", epochs)
        .Param("edges", static_cast<int64_t>(graph.num_edges()))
        .Param("index_width", graph.normalized_adjacency()->index_width());
  };

  // sampled_train runs FIRST (see file comment: RSS attribution).
  {
    const int fanout = 4;
    const int batch_size = 128;
    const float rho = 0.5f;
    bench::CellRecorder recorder("sampled_train");
    stamp_graph(recorder)
        .Param("layers", 3)
        .Param("fanout", fanout)
        .Param("batch_size", batch_size)
        .Param("rho", static_cast<double>(rho));
    const std::vector<int> fanouts = {fanout, fanout, fanout};
    // The trainer's own sampler holds the same per-node state as this one.
    const int64_t sampler_bytes =
        NeighborSampler(graph, {fanouts}).MemoryFootprintBytes();
    const double ms = TrainMsPerEpoch(
        graph, split, StrategyConfig::SkipNodeU(rho), /*num_layers=*/3,
        /*hidden=*/8, epochs,
        {.fanouts = fanouts, .batch_size = batch_size});
    recorder.Record("ms_per_epoch", ms);
    double ratio = 0.0;
    RecordRss(recorder, graph.MemoryFootprintBytes() + sampler_bytes, &ratio);
    std::printf(
        "sampled_train: synth @ %lld nodes, L=3 fanout=%d batch=%d "
        "rho=%.1f\n  %.1f ms/epoch, RSS ratio %.2f (budget 2.00)\n\n",
        static_cast<long long>(big_nodes), fanout, batch_size,
        static_cast<double>(rho), ms, ratio);
  }
  GlobalMatrixPool().Trim();

  // stream_train — the full-batch headline cell on the same graph.
  {
    bench::CellRecorder recorder("stream_train");
    stamp_graph(recorder).Param("layers", 2).Param("checked", 1);
    recorder.Record("build_ms", build_ms);
    const double ms = TrainMsPerEpoch(graph, split, StrategyConfig::None(),
                                      /*num_layers=*/2, /*hidden=*/8, epochs);
    recorder.Record("ms_per_epoch", ms);
    double ratio = 0.0;
    RecordRss(recorder, graph.MemoryFootprintBytes(), &ratio);
    std::printf(
        "stream_train: synth @ %lld nodes, avg degree %.0f\n"
        "  built in %.0f ms, %.1f ms/epoch, footprint %.1f MB, "
        "RSS ratio %.2f (budget 2.00)\n\n",
        static_cast<long long>(big_nodes), big_degree, build_ms, ms,
        static_cast<double>(graph.MemoryFootprintBytes()) / 1e6, ratio);
  }
  GlobalMatrixPool().Trim();
}

void Main() {
  bench::Begin("scale");

  const int64_t big_nodes = bench::Pick<int64_t>(100000, 1000000);
  const double big_degree = bench::Pick(150.0, 100.0);
  const int epochs = bench::Pick(2, 3);
  RunBigGraphPanel(big_nodes, big_degree, epochs);

  // --- Panel 2: depth x rho at a mid-sized graph (default degree 10).
  const int64_t sweep_nodes = bench::Pick<int64_t>(20000, 250000);
  const std::vector<int> depths =
      bench::PaperScale() ? std::vector<int>{2, 8, 32}
                          : std::vector<int>{2, 8, 16};
  const int hidden = 16;

  DatasetRequest request;
  request.name = "synth";
  request.seed = 12;
  request.nodes = sweep_nodes;
  Graph sweep_graph = DatasetRegistry::Global().Build(request);
  Rng sweep_split_rng(12);
  Split sweep_split = PublicSplit(sweep_graph, 20, 300, 500, sweep_split_rng);
  std::printf("depth_sweep: synth @ %lld nodes, layers x rho\n",
              static_cast<long long>(sweep_nodes));

  for (const int depth : depths) {
    for (const float rho : {0.0f, 0.5f}) {
      const StrategyConfig strategy =
          rho > 0.0f ? StrategyConfig::SkipNodeU(rho) : StrategyConfig::None();
      bench::CellRecorder recorder("depth_sweep");
      recorder.Param("nodes", sweep_nodes)
          .Param("layers", depth)
          .Param("rho", static_cast<double>(rho))
          .Param("hidden", hidden)
          .Param("epochs", epochs);
      const double ms = TrainMsPerEpoch(sweep_graph, sweep_split, strategy,
                                        depth, hidden, epochs);
      recorder.Record("ms_per_epoch", ms);
      recorder.Record("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
      std::printf("  L=%-3d rho=%.1f  %.1f ms/epoch\n", depth, rho, ms);
      GlobalMatrixPool().Trim();
    }
  }

  // --- Panel 3: sampled vs full-batch accuracy to convergence (the
  // validator holds sampled within 0.15 of full; DESIGN §15).
  const int acc_epochs = bench::Pick(40, 100);
  std::printf("\nsampled_accuracy: synth @ %lld nodes, L=3, %d epochs\n",
              static_cast<long long>(sweep_nodes), acc_epochs);
  for (const bool sampled : {false, true}) {
    bench::CellRecorder recorder("sampled_accuracy");
    recorder.Param("nodes", sweep_nodes)
        .Param("layers", 3)
        .Param("hidden", hidden)
        .Param("epochs", acc_epochs)
        .Param("mode", sampled ? "sampled" : "full")
        .Param("rho", 0.5);
    Rng rng(3);
    auto model = MakeModel("GCN", ScaleConfig(sweep_graph, 3, hidden), rng);
    TrainRun run{.options = {.epochs = acc_epochs, .seed = 7}};
    if (sampled) run.sampling = {.fanouts = {4, 4, 4}, .batch_size = 128};
    const TrainResult result =
        TrainNodeClassifier(*model, sweep_graph, sweep_split,
                            StrategyConfig::SkipNodeU(0.5f), run);
    recorder.Record("val_accuracy", result.best_val_accuracy);
    recorder.Record("test_accuracy", result.test_accuracy);
    std::printf("  %-7s val %.1f%%, test %.1f%%\n",
                sampled ? "sampled" : "full",
                100.0 * result.best_val_accuracy,
                100.0 * result.test_accuracy);
    GlobalMatrixPool().Trim();
  }
}

}  // namespace
}  // namespace skipnode

int main() {
  skipnode::Main();
  return 0;
}
