// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <utility>

#include "autograd/health.h"
#include "base/check.h"
#include "base/telemetry.h"
#include "core/oversmoothing.h"
#include "serve/frozen_model.h"
#include "train/dynamics.h"
#include "train/metrics.h"
#include "train/optimizer.h"

namespace skipnode {
namespace {

// Outcome of one guarded training step.
enum class StepStatus {
  kOk,          // stepped normally
  kRolledBack,  // fault detected, snapshot restored — skip this epoch's eval
  kHalt,        // rollback budget exhausted — stop training
};

std::string FormatDetail(const char* format, ...) {
  char buffer[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

}  // namespace

const char* HealthEventKindName(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kFaultInjected:
      return "fault-injected";
    case HealthEventKind::kNonFiniteLoss:
      return "non-finite-loss";
    case HealthEventKind::kNonFiniteGradient:
      return "non-finite-gradient";
    case HealthEventKind::kNonFiniteParameter:
      return "non-finite-parameter";
    case HealthEventKind::kGradientClipped:
      return "gradient-clipped";
    case HealthEventKind::kRollback:
      return "rollback";
    case HealthEventKind::kRecoveryExhausted:
      return "recovery-exhausted";
  }
  return "?";
}

namespace {

// Called once per optimizer step, right after Backward, with dLoss/dlogits
// and the logit rows the loss covers (the train split in full-batch mode,
// the batch-local rows 0..B-1 in sampled mode). TrainWithDynamics's hook:
// Figure 2's output-gradient signal lives on the step's Tape and is gone by
// the time TrainRun::on_epoch runs. A pure read.
using LogitGradientProbe = std::function<void(
    const Matrix& logit_grad, const std::vector<int>& loss_rows)>;

// The training loop behind TrainNodeClassifier and TrainWithDynamics;
// `logit_grad_probe` may be empty.
TrainResult TrainLoop(Model& model, const Graph& graph, const Split& split,
                      const StrategyConfig& strategy, const TrainRun& run,
                      const LogitGradientProbe& logit_grad_probe) {
  const TrainOptions& options = run.options;
  const HealthOptions& health = run.health;
  SKIPNODE_CHECK(graph.has_labels());
  SKIPNODE_CHECK(!split.train.empty());
  SKIPNODE_CHECK(options.epochs >= 0);
  SKIPNODE_CHECK(options.eval_every >= 1);
  SKIPNODE_CHECK(health.check_every >= 1);
  SKIPNODE_CHECK(health.max_rollbacks >= 0);
  SKIPNODE_CHECK(health.lr_backoff > 0.0f && health.lr_backoff <= 1.0f);
  SKIPNODE_CHECK(health.grad_clip_norm >= 0.0f);
  SKIPNODE_CHECK(!run.fault.enabled || run.fault.parameter_index >= 0);
  Rng rng(options.seed);
  float learning_rate = options.learning_rate;
  Adam optimizer(learning_rate, options.weight_decay);
  const std::vector<Parameter*> parameters = model.Parameters();
  FaultInjector injector(run.fault);

  // Minibatch sampling state (DESIGN §15). The sampler and the mask callback
  // live for the whole run; the callback draws the per-batch SkipNode masks
  // from the run Rng, serially, inside SampleBlocks.
  const SamplingOptions& sampling = run.sampling;
  const bool sampled = sampling.enabled();
  std::unique_ptr<NeighborSampler> sampler;
  LayerSkipMaskFn sampled_mask_fn;
  std::vector<int> seed_order;
  if (sampled) {
    SKIPNODE_CHECK_MSG(model.SupportsSampledForward(),
                       "model does not support sampled training");
    SKIPNODE_CHECK(sampling.batch_size >= 1);
    sampler = std::make_unique<NeighborSampler>(
        graph, SamplerConfig{sampling.fanouts});
    sampled_mask_fn = MakeSampledSkipMaskFn(
        graph, strategy, static_cast<int>(sampling.fanouts.size()), rng);
    seed_order = split.train;
  }

  TrainResult result;
  result.final_learning_rate = learning_rate;

  const auto log_event = [&](HealthEventKind kind, int epoch,
                             std::string detail) {
    HealthEvent event{kind, epoch, std::move(detail)};
    if (run.health_log != nullptr) run.health_log->push_back(event);
    result.health_log.push_back(std::move(event));
  };

  // The last known-good parameter snapshot. Taken before the first step and
  // refreshed on every scan epoch that passes all checks; rollback restores
  // it verbatim. Plain copies — taking one cannot perturb training.
  std::vector<Matrix> snapshot;
  int snapshot_epoch = -1;
  const auto take_snapshot = [&](int epoch) {
    snapshot.clear();
    for (const Parameter* p : parameters) snapshot.push_back(p->value);
    snapshot_epoch = epoch;
  };

  // Restores the snapshot, decays the LR, and restarts the optimizer (a bad
  // step may have poisoned the Adam moments; fresh moments are the only
  // state guaranteed clean). Returns false once the budget is spent.
  const auto rollback = [&](int epoch) {
    if (result.rollbacks >= health.max_rollbacks) {
      log_event(HealthEventKind::kRecoveryExhausted, epoch,
                FormatDetail("%d rollbacks spent", result.rollbacks));
      return false;
    }
    ++result.rollbacks;
    for (size_t i = 0; i < parameters.size(); ++i) {
      parameters[i]->value = snapshot[i];
    }
    const float decayed = learning_rate * health.lr_backoff;
    log_event(HealthEventKind::kRollback, epoch,
              FormatDetail("restored epoch-%d snapshot, lr %g -> %g",
                           snapshot_epoch, learning_rate, decayed));
    learning_rate = decayed;
    result.final_learning_rate = learning_rate;
    optimizer = Adam(learning_rate, options.weight_decay);
    return true;
  };

  // Phase timing for the current epoch. Clock reads sit between phases only
  // (never inside a kernel), so enabling them cannot perturb a single weight
  // bit. `now` collapses to a constant when nobody is listening, keeping the
  // untimed path free of clock syscalls.
  const bool timed = run.collect_metrics || TelemetryEnabled();
  EpochMetrics phase;
  const auto now = [timed]() { return timed ? MonotonicNanos() : 0; };

  // Fault injection: corrupts `target` when the plan is armed for `site` at
  // `epoch`. The gradient and update sites hit one parameter.
  const auto maybe_inject = [&](FaultSite site, int epoch, Matrix& target) {
    if (!injector.ShouldFire(site, epoch)) return;
    injector.Corrupt(target.data(), target.size(), epoch);
    log_event(HealthEventKind::kFaultInjected, epoch,
              FormatDetail("%s %s x%zu", FaultSiteName(site),
                           FaultKindName(run.fault.kind),
                           injector.events().back().indices.size()));
  };
  Parameter* const fault_parameter =
      run.fault.enabled
          ? parameters[run.fault.parameter_index % parameters.size()]
          : nullptr;

  // One epoch: a pass over the train split in batches, one optimizer step
  // per batch, each a StrategyContext forward plus cross-entropy and the
  // model's auxiliary loss. Full-batch training is the one-batch case — the
  // whole split over the full graph. Sampled training (DESIGN §15) shuffles
  // the split into minibatches, each expanded into sampled blocks under its
  // own seed, with a batch-local cross-entropy. The guardrails run per
  // batch (loss check; gradient probe / clip when armed) and the parameter
  // scan + snapshot once, after the epoch's last step. A rollback abandons
  // the rest of the epoch — the restored parameters predate every batch of
  // it. All Rng draws (shuffle, batch seeds, masks, dropout) happen
  // serially, so the epoch is bitwise identical at any thread count.
  const auto train_epoch = [&](int epoch) {
    const bool scan_epoch =
        health.enabled &&
        (epoch % health.check_every == 0 || epoch == options.epochs - 1);
    size_t batch_size = split.train.size();
    if (sampled) {
      // Fisher-Yates from the run Rng: a fresh minibatch partition per epoch.
      for (size_t i = seed_order.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng.UniformInt(i));
        std::swap(seed_order[i - 1], seed_order[j]);
      }
      batch_size = static_cast<size_t>(sampling.batch_size);
    }
    double epoch_loss = 0.0;
    int num_batches = 0;
    for (size_t start = 0; start < split.train.size(); start += batch_size) {
      const int64_t forward_start = now();
      Tape tape;
      // The forward's inputs stay alive until the step is done.
      SampledBatch batch;
      std::vector<int> batch_labels;
      std::vector<int> batch_rows;
      if (sampled) {
        const size_t end = std::min(start + batch_size, seed_order.size());
        const std::vector<int> seeds(seed_order.begin() + start,
                                     seed_order.begin() + end);
        batch = sampler->SampleBlocks(seeds, rng.Next(), sampled_mask_fn);
        // Logit row i is seed i: the loss sees the batch-local id space.
        for (size_t i = 0; i < seeds.size(); ++i) {
          batch_labels.push_back(
              graph.labels()[static_cast<size_t>(seeds[i])]);
          batch_rows.push_back(static_cast<int>(i));
        }
      }
      StrategyContext ctx =
          sampled ? StrategyContext(graph, batch, strategy, rng)
                  : StrategyContext(graph, strategy, /*training=*/true, rng);
      Var logits = model.Forward(tape, ctx, /*training=*/true, rng);
      maybe_inject(FaultSite::kActivation, epoch, tape.MutableValue(logits));
      const std::vector<int>& loss_rows = sampled ? batch_rows : split.train;
      Var loss = tape.SoftmaxCrossEntropy(
          logits, sampled ? batch_labels : graph.labels(), loss_rows);
      const Var aux = model.AuxiliaryLoss(tape);
      if (aux.valid()) loss = tape.Add(loss, aux);
      const double loss_value = loss.value()(0, 0);
      epoch_loss += loss_value;
      ++num_batches;
      result.final_train_loss = epoch_loss / num_batches;
      phase.forward_ns += now() - forward_start;
      if (health.enabled && !std::isfinite(loss_value)) {
        log_event(HealthEventKind::kNonFiniteLoss, epoch,
                  sampled ? FormatDetail("loss = %g (batch %d)", loss_value,
                                         num_batches - 1)
                          : FormatDetail("loss = %g", loss_value));
        return rollback(epoch) ? StepStatus::kRolledBack : StepStatus::kHalt;
      }
      const int64_t backward_start = now();
      Optimizer::ZeroGrad(parameters);
      tape.Backward(loss);
      if (logit_grad_probe) logit_grad_probe(logits.grad(), loss_rows);
      if (fault_parameter != nullptr) {
        maybe_inject(FaultSite::kGradient, epoch, fault_parameter->grad);
      }
      phase.backward_ns += now() - backward_start;
      if (scan_epoch || (health.enabled && health.grad_clip_norm > 0.0f)) {
        const int64_t probe_start = now();
        const GradientHealth grads = ProbeGradients(parameters);
        if (!grads.finite) {
          log_event(HealthEventKind::kNonFiniteGradient, epoch,
                    grads.first_bad);
          return rollback(epoch) ? StepStatus::kRolledBack : StepStatus::kHalt;
        }
        if (health.grad_clip_norm > 0.0f &&
            grads.global_norm > health.grad_clip_norm) {
          ScaleGradients(parameters,
                         static_cast<float>(health.grad_clip_norm /
                                            grads.global_norm));
          log_event(HealthEventKind::kGradientClipped, epoch,
                    FormatDetail("norm %g > %g", grads.global_norm,
                                 health.grad_clip_norm));
        }
        phase.health_ns += now() - probe_start;
      }
      const int64_t step_start = now();
      optimizer.Step(parameters);
      if (fault_parameter != nullptr) {
        maybe_inject(FaultSite::kUpdate, epoch, fault_parameter->value);
      }
      phase.step_ns += now() - step_start;
    }
    if (scan_epoch) {
      const int64_t scan_start = now();
      std::string first_bad;
      if (!ParametersFinite(parameters, &first_bad)) {
        log_event(HealthEventKind::kNonFiniteParameter, epoch, first_bad);
        return rollback(epoch) ? StepStatus::kRolledBack : StepStatus::kHalt;
      }
      take_snapshot(epoch);
      phase.health_ns += now() - scan_start;
    }
    return StepStatus::kOk;
  };

  // Flushes the epoch's phase timings: into the process-wide telemetry
  // registry (no-ops when telemetry is off) and into the result when the
  // caller asked for per-epoch metrics. Called on every loop exit path.
  const auto finish_epoch = [&]() {
    if (timed) {
      RecordTiming("train.forward", phase.forward_ns);
      RecordTiming("train.backward", phase.backward_ns);
      RecordTiming("train.step", phase.step_ns);
      if (phase.health_ns > 0) RecordTiming("train.health", phase.health_ns);
      if (phase.eval_ns > 0) RecordTiming("train.eval", phase.eval_ns);
    }
    if (run.collect_metrics) result.epoch_metrics.push_back(phase);
  };

  if (health.enabled) take_snapshot(-1);

  int epochs_since_best = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    phase = EpochMetrics{};
    phase.epoch = epoch;
    const StepStatus status = train_epoch(epoch);
    result.epochs_run = epoch + 1;
    phase.train_loss = result.final_train_loss;
    if (status == StepStatus::kHalt) {
      finish_epoch();
      break;
    }
    // A rolled-back epoch re-evaluates nothing: the parameters are an older,
    // already-evaluated state.
    if (status == StepStatus::kRolledBack) {
      finish_epoch();
      continue;
    }

    // --- Periodic evaluation ----------------------------------------------
    if (epoch % options.eval_every != 0 && epoch != options.epochs - 1) {
      finish_epoch();
      continue;
    }
    bool out_of_patience = false;
    {
      const int64_t eval_start = now();
      Tape tape;
      StrategyContext ctx(graph, strategy, /*training=*/false, rng);
      Var logits = model.Forward(tape, ctx, /*training=*/false, rng);
      const double val_acc =
          Accuracy(logits.value(), graph.labels(), split.val);
      const double test_acc =
          Accuracy(logits.value(), graph.labels(), split.test);
      phase.eval_ns = now() - eval_start;
      if (run.on_epoch) {
        run.on_epoch(epoch, result.final_train_loss, val_acc, test_acc);
      }
      if (val_acc > result.best_val_accuracy || result.best_epoch < 0) {
        result.best_val_accuracy = val_acc;
        result.test_accuracy = test_acc;
        result.best_epoch = epoch;
        epochs_since_best = 0;
      } else {
        epochs_since_best += options.eval_every;
        out_of_patience =
            options.patience > 0 && epochs_since_best >= options.patience;
      }
    }
    finish_epoch();
    if (out_of_patience) break;
  }
  return result;
}

}  // namespace

TrainResult TrainNodeClassifier(Model& model, const Graph& graph,
                                const Split& split,
                                const StrategyConfig& strategy,
                                const TrainRun& run) {
  return TrainLoop(model, graph, split, strategy, run, nullptr);
}

DynamicsRecord TrainWithDynamics(Model& model, const Graph& graph,
                                 const Split& split,
                                 const StrategyConfig& strategy,
                                 const TrainOptions& options) {
  const std::vector<Parameter*> parameters = model.Parameters();
  DynamicsRecord record;

  // (b) Gradient at the classification layer, training rows only.
  const auto probe_logit_grad = [&](const Matrix& g,
                                    const std::vector<int>& rows) {
    double sq = 0.0, signed_sum = 0.0;
    for (const int node : rows) {
      const float* row = g.row(node);
      for (int c = 0; c < g.cols(); ++c) {
        sq += static_cast<double>(row[c]) * row[c];
        signed_sum += row[c];
      }
    }
    record.output_gradient_norm.push_back(static_cast<float>(std::sqrt(sq)));
    record.output_gradient_signed_sum.push_back(
        static_cast<float>(signed_sum));
  };

  TrainRun run{.options = options};
  run.options.eval_every = 1;
  run.options.patience = 0;
  // Runs after every epoch's evaluation pass. Parameter gradients survive
  // until the next step's ZeroGrad, and the eval forward has just refreshed
  // Penultimate().
  run.on_epoch = [&](int, double train_loss, double val_accuracy, double) {
    record.train_loss.push_back(static_cast<float>(train_loss));
    record.first_layer_gradient_norm.push_back(
        parameters.front()->grad.Norm());
    // (c) Weight norms after the update.
    float weight_norm = 0.0f;
    for (const Parameter* p : parameters) weight_norm += p->value.Norm();
    record.weight_norm.push_back(weight_norm);
    // (a) MAD of the eval-mode penultimate representation.
    const Matrix& penultimate = model.Penultimate();
    SKIPNODE_CHECK(!penultimate.empty());
    record.mad.push_back(MeanAverageDistance(graph, penultimate));
    record.val_accuracy.push_back(static_cast<float>(val_accuracy));
  };
  TrainLoop(model, graph, split, strategy, run, probe_logit_grad);
  return record;
}

Matrix EvaluateLogits(Model& model, const Graph& graph,
                      const StrategyConfig& strategy) {
  // Routed through the serving layer so there is exactly one eval-mode
  // forward in the codebase: FrozenModel::Freeze runs the pass this
  // function used to run inline (frozen_model_test pins the two bitwise).
  return FrozenModel::Freeze(model, graph, strategy).full_logits();
}

}  // namespace skipnode
