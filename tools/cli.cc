// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/cli.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "base/json.h"
#include "base/telemetry.h"
#include "core/oversmoothing.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "graph/splits.h"
#include "nn/checkpoint.h"
#include "nn/model_factory.h"
#include "tools/cli_flags.h"
#include "train/metrics.h"
#include "train/trainer.h"

namespace skipnode {
namespace {

constexpr char kUsage[] = R"(skipnode_train: train a GNN with a plug-and-play strategy.

Data source (pick one):
  --dataset NAME        built-in synthetic dataset (cora_like, citeseer_like,
                        pubmed_like, chameleon_like, cornell_like, texas_like,
                        wisconsin_like, arxiv_like, ppa_like, synth); NAME may
                        carry an @SIZE node-count suffix ("arxiv_like@169k",
                        "synth@1m"), which builds through the streaming CSR
                        path
  --edges FILE --features FILE --labels FILE
                        user files: edge list ("u v" per line), CSV feature
                        matrix, one integer label per line
Options:
  --scale F             dataset scale in (0, 1] for built-ins   (default 1.0)
  --nodes N             node-count override (0 = spec size); any override
                        switches to the streaming CSR path      (default 0)
  --avg-degree F        average-degree override (0 = spec edge/node ratio)
  --seed N              RNG seed for data/init/training         (default 1)
  --model NAME          GCN GAT ResGCN JKNet IncepGCN GCNII APPNP GPRGNN
                        GRAND SGC                               (default GCN)
  --layers N            convolution/propagation layers         (default 2)
  --hidden N            hidden width                            (default 64)
  --dropout F           dropout rate                            (default 0.5)
  --strategy NAME       none dropedge dropnode pairnorm skipconn skipnode-u
                        skipnode-b                              (default none)
  --rate F              strategy sampling rate rho              (default 0.5)
  --epochs N            training epochs                         (default 200)
  --sample-fanout N     minibatch neighbor sampling: cap every layer's
                        sampled non-self neighbors at N (0 = full-batch;
                        GCN/ResGCN with strategy none/skipnode-u/skipnode-b
                        only; eval stays full-batch)            (default 0)
  --batch-size N        seed nodes per minibatch when sampling  (default 512)
  --lr F                learning rate                           (default 0.01)
  --weight-decay F      L2 coefficient                          (default 5e-4)
  --log-every N         print loss/val/test every N evaluated
                        epochs (0 = silent)                     (default 0)
  --metrics-out FILE    write training telemetry as JSONL: one "epoch" record
                        per epoch (forward/backward/step/health/eval ns) and
                        a final "summary" record with accuracies and the
                        aggregated kernel-timer snapshot
  --split NAME          public | random                         (default public)
  --save-dir DIR        checkpoint the trained model into DIR (created if
                        missing; saves are atomic)
  --load-dir DIR        warm-start from a checkpoint in DIR before training
Numerical health (DESIGN §8):
  --health              enable guardrails: non-finite loss/grad/param scans,
                        rollback to last good snapshot, LR backoff
  --check-every N       scan/snapshot cadence in epochs          (default 1)
  --max-rollbacks N     rollbacks before giving up               (default 3)
  --lr-backoff F        LR multiplier per rollback in (0,1]      (default 0.5)
  --grad-clip F         global gradient-norm clip (0 = off)      (default 0)
Fault injection (testing the guardrails):
  --inject SITE         arm one fault: activation | gradient | update
  --inject-epoch N      epoch at which it fires                  (default 0)
  --inject-kind K       nan | inf                                (default nan)
  --help                print this message
)";

struct CliOptions {
  ModelDataFlags md;
  std::string edges_path, features_path, labels_path;
  float learning_rate = 0.01f;
  float weight_decay = 5e-4f;
  int log_every = 0;
  std::string metrics_out;
  std::string split = "public";
  std::string save_dir;
  std::string load_dir;
  bool health = false;
  int check_every = 1;
  int max_rollbacks = 3;
  float lr_backoff = 0.5f;
  float grad_clip = 0.0f;
  std::string inject_site;
  int inject_epoch = 0;
  std::string inject_kind = "nan";
  int sample_fanout = 0;
  int batch_size = 512;
};

// Writes the per-epoch phase timings and a final summary (with the
// aggregated telemetry snapshot) as JSONL; false on I/O failure.
bool WriteMetricsJsonl(const std::string& path, const TrainResult& result) {
  std::FILE* sink = std::fopen(path.c_str(), "w");
  if (sink == nullptr) return false;
  for (const EpochMetrics& epoch : result.epoch_metrics) {
    JsonObject record;
    record.Add("type", "epoch")
        .Add("epoch", epoch.epoch)
        .Add("forward_ns", epoch.forward_ns)
        .Add("backward_ns", epoch.backward_ns)
        .Add("step_ns", epoch.step_ns)
        .Add("health_ns", epoch.health_ns)
        .Add("eval_ns", epoch.eval_ns)
        .Add("train_loss", epoch.train_loss);
    std::fputs(record.Finish().c_str(), sink);
    std::fputc('\n', sink);
  }
  JsonObject summary;
  summary.Add("type", "summary")
      .Add("epochs_run", result.epochs_run)
      .Add("best_epoch", result.best_epoch)
      .Add("best_val_accuracy", result.best_val_accuracy)
      .Add("test_accuracy", result.test_accuracy)
      .Add("final_train_loss", result.final_train_loss)
      .Add("rollbacks", result.rollbacks)
      .AddRaw("telemetry", SnapshotTelemetry().ToJson());
  std::fputs(summary.Finish().c_str(), sink);
  std::fputc('\n', sink);
  const bool ok = std::ferror(sink) == 0;
  return std::fclose(sink) == 0 && ok;
}

}  // namespace

int RunCli(int argc, const char* const* argv, std::FILE* out) {
  CliOptions options;
  FlagParser parser(kUsage);
  options.md.RegisterOn(&parser);
  parser.AddString("--edges", &options.edges_path);
  parser.AddString("--features", &options.features_path);
  parser.AddString("--labels", &options.labels_path);
  parser.AddFloat("--lr", &options.learning_rate);
  parser.AddFloat("--weight-decay", &options.weight_decay);
  parser.AddInt("--log-every", &options.log_every);
  parser.AddString("--metrics-out", &options.metrics_out);
  parser.AddString("--split", &options.split);
  parser.AddString("--save-dir", &options.save_dir);
  parser.AddString("--load-dir", &options.load_dir);
  parser.AddBool("--health", &options.health);
  parser.AddInt("--check-every", &options.check_every);
  parser.AddInt("--max-rollbacks", &options.max_rollbacks);
  parser.AddFloat("--lr-backoff", &options.lr_backoff);
  parser.AddFloat("--grad-clip", &options.grad_clip);
  parser.AddString("--inject", &options.inject_site);
  parser.AddInt("--inject-epoch", &options.inject_epoch);
  parser.AddString("--inject-kind", &options.inject_kind);
  parser.AddInt("--sample-fanout", &options.sample_fanout);
  parser.AddInt("--batch-size", &options.batch_size);
  if (!parser.Parse(argc, argv, out) || !options.md.Validate(out)) return 1;

  // --- Data ---------------------------------------------------------------
  std::unique_ptr<Graph> graph;
  if (!options.md.dataset.empty()) {
    if (!options.md.BuildGraph(&graph, out)) return 1;
  } else if (!options.edges_path.empty()) {
    if (options.features_path.empty() || options.labels_path.empty()) {
      std::fprintf(out,
                   "error: --edges needs --features and --labels too\n");
      return 1;
    }
    if (!LoadGraph("user_graph", options.edges_path, options.features_path,
                   options.labels_path, &graph)) {
      std::fprintf(out, "error: failed to load graph files\n");
      return 1;
    }
  } else {
    std::fprintf(out, "error: pass --dataset or --edges/... (see --help)\n");
    return 1;
  }
  std::fprintf(out, "graph: %s | %d nodes | %d edges | %d classes | "
                    "homophily %.2f\n",
               graph->name().c_str(), graph->num_nodes(), graph->num_edges(),
               graph->num_classes(), graph->EdgeHomophily());

  // --- Split --------------------------------------------------------------
  Rng split_rng(options.md.seed);
  Split split;
  bool split_filled = false;
  if (options.split == "public") {
    split_filled = TryPublicSplit(*graph, 20, 500, 1000, split_rng, &split);
  } else if (options.split == "random") {
    split = RandomSplit(*graph, 0.6, 0.2, split_rng);
    split_filled = !split.val.empty() && !split.test.empty();
  } else {
    std::fprintf(out, "error: unknown split '%s'\n", options.split.c_str());
    return 1;
  }
  if (!split_filled) {
    std::fprintf(out,
                 "error: %d nodes are too few for the %s split (a "
                 "train/val/test pool is empty)\n",
                 graph->num_nodes(), options.split.c_str());
    return 1;
  }

  // --- Model & strategy ---------------------------------------------------
  if (!KnownModelName(options.md.model)) {
    std::fprintf(out, "error: unknown model '%s'\n",
                 options.md.model.c_str());
    return 1;
  }
  StrategyConfig strategy;
  if (!MakeStrategyFromName(options.md.strategy, options.md.rate, &strategy,
                            out)) {
    return 1;
  }

  ModelConfig config;
  config.in_dim = graph->feature_dim();
  config.hidden_dim = options.md.hidden;
  config.out_dim = graph->num_classes();
  config.num_layers = options.md.layers;
  config.dropout = options.md.dropout;

  Rng model_rng(options.md.seed + 7);
  auto model = MakeModel(options.md.model, config, model_rng);
  if (!options.load_dir.empty()) {
    if (!LoadModelParameters(*model, options.load_dir)) {
      std::fprintf(out,
                   "error: failed to restore checkpoint from '%s' "
                   "(model left untouched)\n",
                   options.load_dir.c_str());
      return 1;
    }
    std::fprintf(out, "warm-started from %s\n", options.load_dir.c_str());
  }

  // --- Train --------------------------------------------------------------
  TrainRun train_run;
  train_run.options.epochs = options.md.epochs;
  train_run.options.learning_rate = options.learning_rate;
  train_run.options.weight_decay = options.weight_decay;
  train_run.options.seed = options.md.seed;
  if (options.check_every < 1 || options.max_rollbacks < 0 ||
      options.lr_backoff <= 0.0f || options.lr_backoff > 1.0f ||
      options.grad_clip < 0.0f) {
    std::fprintf(out, "error: bad health flags (see --help)\n");
    return 1;
  }
  train_run.health.enabled = options.health;
  train_run.health.check_every = options.check_every;
  train_run.health.max_rollbacks = options.max_rollbacks;
  train_run.health.lr_backoff = options.lr_backoff;
  train_run.health.grad_clip_norm = options.grad_clip;
  if (!options.inject_site.empty()) {
    FaultPlan plan;
    plan.enabled = true;
    if (!ParseFaultSite(options.inject_site, &plan.site)) {
      std::fprintf(out, "error: unknown --inject site '%s'\n",
                   options.inject_site.c_str());
      return 1;
    }
    if (!ParseFaultKind(options.inject_kind, &plan.kind)) {
      std::fprintf(out, "error: unknown --inject-kind '%s'\n",
                   options.inject_kind.c_str());
      return 1;
    }
    plan.epoch = options.inject_epoch;
    plan.seed = options.md.seed + 41;
    train_run.fault = plan;
  }
  if (options.sample_fanout < 0 || options.batch_size < 1) {
    std::fprintf(out, "error: bad sampling flags (see --help)\n");
    return 1;
  }
  if (options.sample_fanout > 0) {
    if (!model->SupportsSampledForward()) {
      std::fprintf(out,
                   "error: --sample-fanout is not supported by model '%s'\n",
                   options.md.model.c_str());
      return 1;
    }
    if (strategy.kind != StrategyKind::kNone &&
        strategy.kind != StrategyKind::kSkipNodeUniform &&
        strategy.kind != StrategyKind::kSkipNodeBiased) {
      std::fprintf(out,
                   "error: --sample-fanout supports only strategies none / "
                   "skipnode-u / skipnode-b\n");
      return 1;
    }
    train_run.sampling.fanouts.assign(
        static_cast<size_t>(options.md.layers), options.sample_fanout);
    train_run.sampling.batch_size = options.batch_size;
  }
  if (options.log_every > 0) {
    const int log_every = options.log_every;
    train_run.on_epoch = [out, log_every](int epoch, double train_loss,
                                          double val_acc, double test_acc) {
      if (epoch % log_every != 0) return;
      std::fprintf(out, "epoch %4d | loss %.4f | val %.2f%% | test %.2f%%\n",
                   epoch, train_loss, 100.0 * val_acc, 100.0 * test_acc);
    };
  }
  if (!options.metrics_out.empty()) {
    // Per-epoch metrics plus kernel-level timers; both stay off the numeric
    // path, so the trained model is bitwise identical to an uninstrumented
    // run (tests/train/trainer_metrics_test.cc asserts this).
    train_run.collect_metrics = true;
    SetTelemetryEnabled(true);
    ResetTelemetry();
  }
  std::fprintf(out, "training %s (L=%d, hidden=%d) + %s for %d epochs\n",
               options.md.model.c_str(), options.md.layers, options.md.hidden,
               StrategyName(strategy.kind), options.md.epochs);
  if (train_run.sampling.enabled()) {
    std::fprintf(out, "sampling: fanout %d, batch size %d\n",
                 options.sample_fanout, train_run.sampling.batch_size);
  }
  const TrainResult result =
      TrainNodeClassifier(*model, *graph, split, strategy, train_run);
  if (!options.metrics_out.empty() &&
      !WriteMetricsJsonl(options.metrics_out, result)) {
    std::fprintf(out, "error: could not write metrics to '%s'\n",
                 options.metrics_out.c_str());
    return 1;
  }
  for (const HealthEvent& event : result.health_log) {
    std::fprintf(out, "health: epoch %4d | %-20s | %s\n", event.epoch,
                 HealthEventKindName(event.kind), event.detail.c_str());
  }
  if (result.rollbacks > 0) {
    std::fprintf(out, "health: %d rollback(s); final lr %g\n",
                 result.rollbacks, result.final_learning_rate);
  }

  // --- Report -------------------------------------------------------------
  // Eval mode draws no randomness, so this pass is deterministic; the
  // macro-F1 and the MAD read its logits and its penultimate rows.
  const Evaluation eval = EvaluateWithPenultimate(*model, *graph, strategy);
  std::fprintf(out, "best val accuracy : %.2f%% (epoch %d)\n",
               100.0 * result.best_val_accuracy, result.best_epoch);
  std::fprintf(out, "test accuracy     : %.2f%%\n",
               100.0 * result.test_accuracy);
  std::fprintf(out, "test macro-F1     : %.3f\n",
               MacroF1(eval.logits, graph->labels(), split.test,
                       graph->num_classes()));
  std::fprintf(out, "penultimate MAD   : %.4f\n",
               MeanAverageDistance(*graph, eval.penultimate));

  if (!options.save_dir.empty()) {
    if (!SaveModelParameters(*model, options.save_dir)) {
      std::fprintf(out, "error: checkpoint to '%s' failed\n",
                   options.save_dir.c_str());
      return 1;
    }
    std::fprintf(out, "checkpoint saved to %s\n", options.save_dir.c_str());
  }
  return 0;
}

}  // namespace skipnode
