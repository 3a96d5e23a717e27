// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Engineering micro-benchmarks (not a paper table): throughput of the hot
// kernels behind every experiment — dense GEMM, sparse SpMM (full and
// masked), adjacency renormalisation (DropEdge's per-epoch cost), and
// SkipNode mask sampling (its claimed near-zero overhead). After the
// google-benchmark report, a fused-vs-naive rho sweep prints the speedup of
// the fused SkipNode propagation (DESIGN §10) and a transposed-SpMM sweep
// times the backward gather (1-vs-4 threads, masked over rho); both record
// one JSONL cell per configuration when SKIPNODE_BENCH_JSON is set.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"
#include "bench_common.h"
#include "core/skipnode.h"
#include "graph/datasets.h"
#include "sparse/graph_ops.h"
#include "tensor/ops.h"
#include "train/optimizer.h"

namespace skipnode {
namespace {

// Pins the pool width for one benchmark run and restores the default after.
// UseRealTime() matters on every threaded benchmark: CPU time sums the
// workers and would hide any parallel speedup.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int count) { SetParallelThreadCount(count); }
  ~ThreadCountGuard() { SetParallelThreadCount(0); }
};

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::Random(n, 64, rng);
  Matrix b = Matrix::Random(64, 64, rng);
  for (auto _ : state) {
    Matrix c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * 64 * 64);
}
BENCHMARK(BM_MatMul)->Arg(512)->Arg(2048);

void BM_SpMM(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  const auto a_hat = graph.normalized_adjacency();
  Rng rng(2);
  Matrix x = Matrix::Random(graph.num_nodes(), cols, rng);
  for (auto _ : state) {
    Matrix y = a_hat->Multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a_hat->nnz() * cols);
}
BENCHMARK(BM_SpMM)->Arg(16)->Arg(64);

void BM_SpMMMasked(benchmark::State& state) {
  // Masked SpMM at rho = range/100: only (1-rho) of the output rows are
  // computed, so throughput should rise roughly linearly with rho.
  const float rho = static_cast<float>(state.range(0)) / 100.0f;
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  const auto a_hat = graph.normalized_adjacency();
  Rng rng(2);
  Matrix x = Matrix::Random(graph.num_nodes(), 64, rng);
  Rng mask_rng(7);
  const auto mask = SampleSkipMaskUniform(graph.num_nodes(), rho, mask_rng);
  Matrix y(graph.num_nodes(), 64);
  for (auto _ : state) {
    a_hat->MultiplyAccumulateMasked(x, mask, y);
    benchmark::DoNotOptimize(y.data());
    y.SetZero();
  }
  state.SetItemsProcessed(state.iterations() * a_hat->nnz() * 64);
}
BENCHMARK(BM_SpMMMasked)->Arg(0)->Arg(50)->Arg(100);

void BM_DropEdgeRenormalize(benchmark::State& state) {
  // The per-epoch cost DropEdge pays and SkipNode avoids (Table 8's story).
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  Rng rng(3);
  for (auto _ : state) {
    CsrMatrix sampled =
        DropEdgeAdjacency(*graph.normalized_adjacency(), 0.3, rng);
    benchmark::DoNotOptimize(sampled.nnz());
  }
}
BENCHMARK(BM_DropEdgeRenormalize);

void BM_DropNodeRenormalize(benchmark::State& state) {
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  Rng rng(4);
  for (auto _ : state) {
    CsrMatrix sampled =
        DropNodeAdjacency(*graph.normalized_adjacency(), 0.3, rng);
    benchmark::DoNotOptimize(sampled.nnz());
  }
}
BENCHMARK(BM_DropNodeRenormalize);

void BM_SkipMaskUniform(benchmark::State& state) {
  Rng rng(5);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto mask = SampleSkipMaskUniform(n, 0.5f, rng);
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_SkipMaskUniform)->Arg(2708)->Arg(100000);

void BM_SkipMaskBiased(benchmark::State& state) {
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  Rng rng(6);
  for (auto _ : state) {
    auto mask = SampleSkipMaskBiased(graph.degrees(), 0.5f, rng);
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_SkipMaskBiased);

void BM_NormalizedAdjacency(benchmark::State& state) {
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  const EdgeList edges = UndirectedEdges(*graph.normalized_adjacency());
  for (auto _ : state) {
    CsrMatrix a_hat = NormalizedAdjacency(graph.num_nodes(), edges);
    benchmark::DoNotOptimize(a_hat.nnz());
  }
}
BENCHMARK(BM_NormalizedAdjacency);

// --- Thread-pool sweeps ------------------------------------------------------
// The same kernels at a forced pool width of 1 / 2 / 4; the ratio of the
// real-time numbers is the parallel speedup on the current machine (flat on
// a single-core host — see EXPERIMENTS.md).

void BM_GemmThreads(benchmark::State& state) {
  const ThreadCountGuard guard(static_cast<int>(state.range(0)));
  Rng rng(1);
  Matrix a = Matrix::Random(1024, 256, rng);
  Matrix b = Matrix::Random(256, 256, rng);
  Matrix out(1024, 256);
  for (auto _ : state) {
    Gemm(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{1024} * 256 * 256);
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_GemmTransposeAThreads(benchmark::State& state) {
  // The backward-pass shape: dW = X^T * dY.
  const ThreadCountGuard guard(static_cast<int>(state.range(0)));
  Rng rng(2);
  Matrix x = Matrix::Random(4096, 128, rng);
  Matrix dy = Matrix::Random(4096, 128, rng);
  Matrix dw(128, 128);
  for (auto _ : state) {
    Gemm(x, dy, dw, {.transpose_a = true});
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{4096} * 128 * 128);
}
BENCHMARK(BM_GemmTransposeAThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_SpMMThreads(benchmark::State& state) {
  const ThreadCountGuard guard(static_cast<int>(state.range(0)));
  // arxiv_like is the largest built-in: enough rows for per-row chunking.
  Graph graph = BuildDatasetByName("arxiv_like", 1.0, 1);
  const auto a_hat = graph.normalized_adjacency();
  Rng rng(3);
  Matrix x = Matrix::Random(graph.num_nodes(), 64, rng);
  for (auto _ : state) {
    Matrix y = a_hat->Multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a_hat->nnz() * 64);
}
BENCHMARK(BM_SpMMThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_SpMMTransposedThreads(benchmark::State& state) {
  // The backward-pass shape dX += Â^T * g, now a row-parallel gather over
  // the cached transpose plan instead of a serial scatter.
  const ThreadCountGuard guard(static_cast<int>(state.range(0)));
  Graph graph = BuildDatasetByName("arxiv_like", 1.0, 1);
  const auto a_hat = graph.normalized_adjacency();
  Rng rng(3);
  Matrix g = Matrix::Random(graph.num_nodes(), 64, rng);
  // Warm the plan so the loop times the gather, not the one-off build.
  (void)a_hat->transpose_plan();
  for (auto _ : state) {
    Matrix dx = a_hat->MultiplyTransposed(g);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * a_hat->nnz() * 64);
}
BENCHMARK(BM_SpMMTransposedThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --- Fused SkipNode propagation sweep ---------------------------------------
// Forward cost of one middle-layer SkipNode propagation, naive vs fused
// (DESIGN §10), over rho. Naive pays the full SpMM and then overwrites the
// skipped rows; fused copies the skipped rows and convolves only the rest,
// so its time should fall as rho grows while naive stays flat. Each timing
// is also recorded as a JSONL cell (cells "spmm_naive" / "spmm_fused",
// metric ns_per_op) whose telemetry snapshot carries spmm.rows_skipped —
// the acceptance signal that the fused kernel really skipped work.

int64_t TimeReps(int reps, const std::function<void()>& op) {
  const int64_t start = MonotonicNanos();
  for (int r = 0; r < reps; ++r) op();
  return (MonotonicNanos() - start) / reps;
}

void FusedSweep() {
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  const auto a_hat = graph.normalized_adjacency();
  const int n = graph.num_nodes(), d = 64;
  Rng rng(2);
  const Matrix x = Matrix::Random(n, d, rng);
  const Matrix pre = Matrix::Random(n, d, rng);
  const int reps = bench::Pick(20, 200);

  std::printf("\nFused SkipNode propagation, %d nodes x %d cols, %d reps "
              "(ns/op)\n", n, d, reps);
  std::printf("%6s %12s %12s %9s %14s\n", "rho", "naive", "fused", "speedup",
              "rows_skipped");
  for (const float rho : {0.0f, 0.25f, 0.5f, 0.75f, 1.0f}) {
    Rng mask_rng(7);
    const auto mask = SampleSkipMaskUniform(n, rho, mask_rng);
    const int skipped = CountSkipped(mask);

    bench::CellRecorder naive_cell("spmm_naive");
    naive_cell.Param("rho", static_cast<double>(rho))
        .Param("cols", d)
        .Param("reps", reps);
    const int64_t naive_ns = TimeReps(reps, [&]() {
      Matrix y = a_hat->Multiply(x);
      CopyRowsWhere(pre, mask, y);
      benchmark::DoNotOptimize(y.data());
    });
    naive_cell.Record("ns_per_op", static_cast<double>(naive_ns));

    bench::CellRecorder fused_cell("spmm_fused");
    fused_cell.Param("rho", static_cast<double>(rho))
        .Param("cols", d)
        .Param("reps", reps);
    const int64_t fused_ns = TimeReps(reps, [&]() {
      Matrix y(n, d);
      CopyRowsWhere(pre, mask, y);
      a_hat->MultiplyAccumulateMasked(x, mask, y);
      benchmark::DoNotOptimize(y.data());
    });
    fused_cell.Record("ns_per_op", static_cast<double>(fused_ns));

    std::printf("%6.2f %12lld %12lld %8.2fx %14d\n", rho,
                static_cast<long long>(naive_ns),
                static_cast<long long>(fused_ns),
                static_cast<double>(naive_ns) /
                    static_cast<double>(fused_ns > 0 ? fused_ns : 1),
                skipped);
  }
}

// --- Transposed-SpMM sweep ---------------------------------------------------
// Backward-pass cost Â^T · g over the cached transpose plan: the unmasked
// gather at a pool width of 1 and 4 (cells "spmm_t"; the ratio is the
// parallel speedup, flat on a single-core host), then the masked gather over
// rho (cells "spmm_t_masked"; work drops with the skipped source rows —
// near-total at rho=1.0, while rho=0.5 pays maximal skip-branch
// misprediction and wins only modestly on one core). Each cell's telemetry
// snapshot carries spmm_t.rows_skipped — the acceptance signal that the
// masked gather really skipped its entries.

void TransposedSweep() {
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  const auto a_hat = graph.normalized_adjacency();
  const int n = graph.num_nodes(), d = 64;
  Rng rng(2);
  const Matrix g = Matrix::Random(n, d, rng);
  const int reps = bench::Pick(20, 200);
  (void)a_hat->transpose_plan();  // Time the gathers, not the one-off build.

  std::printf("\nTransposed SpMM (backward gather), %d nodes x %d cols, "
              "%d reps (ns/op)\n", n, d, reps);
  for (const int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    bench::CellRecorder cell("spmm_t");
    cell.Param("cols", d).Param("reps", reps);
    const int64_t ns = TimeReps(reps, [&]() {
      Matrix dx = a_hat->MultiplyTransposed(g);
      benchmark::DoNotOptimize(dx.data());
    });
    cell.Record("ns_per_op", static_cast<double>(ns));
    std::printf("  unmasked @ %d threads %12lld\n", threads,
                static_cast<long long>(ns));
  }
  SetParallelThreadCount(0);

  std::printf("%6s %12s %14s\n", "rho", "masked", "rows_skipped");
  for (const float rho : {0.0f, 0.5f, 1.0f}) {
    Rng mask_rng(7);
    const auto mask = SampleSkipMaskUniform(n, rho, mask_rng);
    const int skipped = CountSkipped(mask);
    bench::CellRecorder cell("spmm_t_masked");
    cell.Param("rho", static_cast<double>(rho))
        .Param("cols", d)
        .Param("reps", reps);
    const int64_t ns = TimeReps(reps, [&]() {
      Matrix dx = a_hat->MultiplyTransposedMasked(g, mask);
      benchmark::DoNotOptimize(dx.data());
    });
    cell.Record("ns_per_op", static_cast<double>(ns));
    std::printf("%6.2f %12lld %14d\n", rho, static_cast<long long>(ns),
                skipped);
  }
}

// --- SIMD kernel sweep -------------------------------------------------------
// Single-thread cost of the vectorized microkernels (DESIGN §14) against the
// retained scalar references (simd_ref.cc, compiled with vectorization off),
// toggled through the runtime kill-switch. Cells "simd_gemm" /
// "simd_gemm_tb" / "simd_axpby" / "simd_adam" are the acceptance gates
// (validate_bench_jsonl.py requires the simd=1 variant ≥ 1.5x the simd=0
// one); "simd_spmm" and "simd_relu" are
// informational (their inner loops are short at real-graph degrees, so the
// win is workload-dependent). Exact-path kernels only — results are bitwise
// identical across the toggle, so both variants do identical arithmetic.

void SimdCell(const char* name, int reps, const std::function<void()>& op) {
  for (const int simd_on : {0, 1}) {
    simd::SetEnabled(simd_on != 0);
    op();  // Warm caches (and for simd=1, any lazily-built plans).
    bench::CellRecorder cell(name);
    cell.Param("simd", simd_on).Param("reps", reps);
    const int64_t ns = TimeReps(reps, op);
    cell.Record("ns_per_op", static_cast<double>(ns));
    std::printf("%12s simd=%d %12lld\n", name, simd_on,
                static_cast<long long>(ns));
  }
}

void SimdSweep() {
  const bool saved_simd = simd::Enabled();
  SetParallelThreadCount(1);  // Single-thread: isolate the kernel speedup.
  const int reps = bench::Pick(50, 500);
  std::printf("\nSIMD microkernels vs scalar reference, 1 thread, %d reps "
              "(ns/op, compiled: %s)\n", reps, simd::CompiledMode());
  Rng rng(11);

  {
    Matrix a = Matrix::Random(256, 128, rng);
    Matrix b = Matrix::Random(128, 256, rng);
    Matrix out(256, 256);
    SimdCell("simd_gemm", reps, [&]() {
      Gemm(a, b, out);
      benchmark::DoNotOptimize(out.data());
    });
  }
  {
    // The deep_fullbatch backward's dX = dY * W^T: a 2708 x 32 gradient
    // against a 32 x 32 hidden weight.
    Matrix g = Matrix::Random(2708, 32, rng);
    Matrix w = Matrix::Random(32, 32, rng);
    Matrix out(2708, 32);
    SimdCell("simd_gemm_tb", reps, [&]() {
      Gemm(g, w, out, {.transpose_b = true});
      benchmark::DoNotOptimize(out.data());
    });
  }
  {
    Matrix a = Matrix::Random(256, 256, rng);
    Matrix b = Matrix::Random(256, 256, rng);
    Matrix out(256, 256);
    SimdCell("simd_axpby", reps, [&]() {
      AxpbyInto(a, b, 0.5f, 0.25f, out);
      benchmark::DoNotOptimize(out.data());
    });
  }
  {
    // One Adam step over a 256x256 parameter; grads fixed, so every rep does
    // the same arithmetic (value drifts, which is fine for timing).
    Parameter p("w", Matrix::Random(256, 256, rng));
    p.grad = Matrix::Random(256, 256, rng);
    Adam adam(0.01f, 5e-4f);
    const std::vector<Parameter*> params = {&p};
    SimdCell("simd_adam", reps, [&]() {
      adam.Step(params);
      benchmark::DoNotOptimize(p.value.data());
    });
  }
  {
    Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
    const auto a_hat = graph.normalized_adjacency();
    Matrix x = Matrix::Random(graph.num_nodes(), 64, rng);
    SimdCell("simd_spmm", reps, [&]() {
      Matrix y = a_hat->Multiply(x);
      benchmark::DoNotOptimize(y.data());
    });
  }
  {
    Matrix x = Matrix::Random(256, 256, rng);
    Matrix out(256, 256);
    SimdCell("simd_relu", reps, [&]() {
      ReluInto(x, out);
      benchmark::DoNotOptimize(out.data());
    });
  }

  SetParallelThreadCount(0);
  simd::SetEnabled(saved_simd);
}

}  // namespace
}  // namespace skipnode

// Custom main instead of BENCHMARK_MAIN so the binary joins the bench
// harness (banner, SKIPNODE_BENCH_* knobs, JSONL cells for the fused sweep)
// and a run under SKIPNODE_TELEMETRY=1 can dump the aggregated kernel-timer
// snapshot after the report — ground truth for how much wall-clock each
// instrumented kernel really absorbed across the whole run.
int main(int argc, char** argv) {
  skipnode::bench::Begin("micro");
  // At smoke scale cap google-benchmark's per-benchmark budget so the whole
  // binary stays CI-sized; an explicit flag still wins.
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  bool has_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time", 20) == 0) {
      has_min_time = true;
    }
  }
  if (!skipnode::bench::PaperScale() && !has_min_time) {
    args.push_back(min_time.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  skipnode::FusedSweep();
  skipnode::TransposedSweep();
  skipnode::SimdSweep();
  if (skipnode::TelemetryEnabled()) {
    std::printf("telemetry: %s\n",
                skipnode::SnapshotTelemetry().ToJson().c_str());
  }
  return 0;
}
