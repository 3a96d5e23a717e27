// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared plumbing for the table/figure reproduction binaries. Every binary
// reads its configuration from one place — BenchConfig::FromEnv() — instead
// of scattering getenv calls:
//   SKIPNODE_BENCH_SCALE   smoke (default) | paper — shrunk vs full protocol
//   SKIPNODE_BENCH_GUARD   run every cell under the health guardrails (§8)
//   SKIPNODE_BENCH_TRACE   print per-epoch loss/accuracy for every cell
//   SKIPNODE_BENCH_THREADS override the worker-pool thread count
//   SKIPNODE_BENCH_JSON    append one JSONL record per cell to this path
//                          (enables telemetry so each record carries a
//                          per-cell kernel-level snapshot)
//   SKIPNODE_SIMD          1 (default) | 0 — runtime kill-switch for the
//                          vectorized kernels (DESIGN §14)
//
// Unrecognised values abort with a message naming the variable — a typo'd
// SKIPNODE_BENCH_SCALE=papr must not silently record a smoke run as if it
// were the requested one.
//
// A binary calls Begin("table3") once, then either goes through RunCell /
// RunCellTuned (which record their cell automatically) or constructs a
// CellRecorder by hand for custom metrics.

#ifndef SKIPNODE_BENCH_BENCH_COMMON_H_
#define SKIPNODE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "nn/model_factory.h"
#include "train/trainer.h"

namespace skipnode::bench {

enum class Scale { kSmoke, kPaper };

// Everything the bench harness reads from the environment, parsed once.
struct BenchConfig {
  Scale scale = Scale::kSmoke;
  bool guard = false;         // SKIPNODE_BENCH_GUARD
  bool trace = false;         // SKIPNODE_BENCH_TRACE
  int threads = 0;            // SKIPNODE_BENCH_THREADS; 0 keeps the default
  std::string json_path;      // SKIPNODE_BENCH_JSON; empty disables
  bool simd = true;           // SKIPNODE_SIMD; false pins the scalar refs

  // Aborts (SKIPNODE_CHECK) on an unrecognised SKIPNODE_BENCH_SCALE or
  // SKIPNODE_SIMD value instead of silently falling back to the default.
  static BenchConfig FromEnv();
};

// The process-wide config, parsed from the environment on first use.
const BenchConfig& Config();

inline bool PaperScale() { return Config().scale == Scale::kPaper; }

// Picks the smoke or paper value.
template <typename T>
T Pick(T smoke, T paper) {
  return PaperScale() ? paper : smoke;
}

// Starts a bench binary: prints the banner, applies the thread override, and
// when SKIPNODE_BENCH_JSON is set opens the sink and enables telemetry so
// every cell record carries a kernel-level snapshot. `name` keys the JSONL
// records ("table3", "fig5", ...).
void Begin(const char* name);

// The sink opened by Begin, or nullptr when SKIPNODE_BENCH_JSON is unset.
std::FILE* JsonSink();

// Records one bench cell as a JSONL line:
//   {"bench":...,"cell":...,"scale":...,"threads":N,"params":{...},
//    "metric":...,"value":V,"elapsed_ns":E,"telemetry":{...}}
// Construction resets the telemetry registry (when enabled) and starts the
// cell clock, so elapsed_ns and the embedded snapshot cover exactly this
// cell. Everything is a no-op when no sink is open.
class CellRecorder {
 public:
  explicit CellRecorder(std::string cell);

  CellRecorder& Param(const std::string& key, const std::string& value);
  CellRecorder& Param(const std::string& key, const char* value);
  CellRecorder& Param(const std::string& key, double value);
  CellRecorder& Param(const std::string& key, int64_t value);
  CellRecorder& Param(const std::string& key, int value);

  // Appends one record for `metric`; may be called more than once per cell
  // (each call re-reads the clock and the telemetry snapshot).
  void Record(const std::string& metric, double value);

 private:
  std::string cell_;
  // Params pre-encoded as (key, raw JSON value) so Record can splice them
  // into any number of records.
  std::vector<std::pair<std::string, std::string>> params_;
  int64_t start_ns_ = 0;
};

// One node-classification training run: builds the model fresh and returns
// validation-selected test accuracy (%). Records the cell to the JSONL sink
// (metric "test_accuracy") when one is open.
double RunCell(const std::string& backbone, const Graph& graph,
               const Split& split, const StrategyConfig& strategy,
               int num_layers, int hidden, int epochs, uint64_t seed,
               float dropout = 0.5f, float weight_decay = 5e-4f);

// Mean training time per epoch (ms) of a run trained with
// TrainRun::collect_metrics: forward + backward + step + health phases,
// evaluation excluded. The first `warmup_epochs` epochs are left out.
double TrainMillisPerEpoch(const TrainResult& result, int warmup_epochs = 0);

// Best accuracy over a small rho grid — the paper tunes the strategy rate on
// the validation set; we mirror that cheaply with a fixed grid. Returns the
// test accuracy of the best-validation rho and records it (params include
// the winning rate).
double RunCellTuned(const std::string& backbone, const Graph& graph,
                    const Split& split, StrategyKind kind,
                    const std::vector<float>& rates, int num_layers,
                    int hidden, int epochs, uint64_t seed);

}  // namespace skipnode::bench

#endif  // SKIPNODE_BENCH_BENCH_COMMON_H_
