// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Engineering micro-benchmarks (not a paper table): throughput of the hot
// kernels behind every experiment — dense GEMM, sparse SpMM (full and
// masked), adjacency renormalisation (DropEdge's per-epoch cost), and
// SkipNode mask sampling (its claimed near-zero overhead). After the
// google-benchmark report, a fused-vs-naive rho sweep prints the speedup of
// the fused SkipNode propagation (DESIGN §10) and a transposed-SpMM sweep
// times the backward gather (1-vs-4 threads, masked over rho), a gather
// sweep times the prefetched row gather against the loop without it, a Gemm
// row sweep times the register-tiled Gemm against the per-entry Axpy loop it
// replaced, a SIMD sweep times the vectorized microkernels against their
// scalar references, a CDF-lookup cell times the DC-SBM generator's
// propensity search, and a pool fan-out cell times what one ParallelFor
// fan-out costs in process CPU; each records one JSONL cell per
// configuration when SKIPNODE_BENCH_JSON is set.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "base/check.h"
#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"
#include "bench_common.h"
#include "core/skipnode.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "sparse/graph_ops.h"
#include "tensor/ops.h"
#include "train/optimizer.h"

namespace skipnode {
namespace {

// Pins the pool width for one benchmark run and restores the default after.
// Every threaded benchmark reports both clocks: UseRealTime() makes the
// iteration count and the rate follow wall time, where a parallel speedup
// shows, and MeasureProcessCPUTime() makes the CPU column sum every thread
// of the process, where the pool's fan-out cost shows.
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
    a_hat->MultiplyAccumulate(x, y, mask);
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
// real-time numbers is the parallel speedup on the current machine, and the
// CPU column (process CPU, all threads) what the fan-out costs for it — see
// EXPERIMENTS.md.

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
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->MeasureProcessCPUTime();

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
BENCHMARK(BM_GemmTransposeAThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->MeasureProcessCPUTime();

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
BENCHMARK(BM_SpMMThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->MeasureProcessCPUTime();

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
BENCHMARK(BM_SpMMTransposedThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->MeasureProcessCPUTime();

// --- Fused SkipNode propagation sweep ---------------------------------------
// Forward cost of one middle-layer SkipNode propagation, naive vs fused
// (DESIGN §10), over rho, on one thread. Naive pays the full SpMM and then
// overwrites the skipped rows; fused copies the skipped rows and convolves
// only the rest, so its time should fall as rho grows while naive stays
// flat. Both write into outputs allocated once, outside the timed loop, and
// are sampled alternately kSamples times with telemetry off, so host noise
// and timer overhead hit both alike; each records its median sample as a
// JSONL cell (cells "spmm_naive" / "spmm_fused", metric ns_per_op). Each
// cell's recorder then sees one more pass of its own op, so the fused
// snapshot carries spmm.rows_skipped from the fused kernel alone — the
// acceptance signal that it really skipped work.

// Samples behind every timing of the fused and transposed sweeps; each
// records the median.
constexpr int kSamples = 7;
// Samples behind each spmm_gather cell: its gate sits close to what it
// measures on both graphs (1.3x floor on dcsbm_100k, 1.05x cap on
// cora_like), so the median paired ratio needs more samples than elsewhere.
constexpr int kGatherSamples = 21;

int64_t TimeReps(int reps, const std::function<void()>& op) {
  const int64_t start = MonotonicNanos();
  for (int r = 0; r < reps; ++r) op();
  return (MonotonicNanos() - start) / reps;
}

int64_t Median(std::vector<int64_t> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// The median of kSamples timings of `reps` reps of op.
int64_t MedianReps(int reps, const std::function<void()>& op) {
  std::vector<int64_t> samples;
  for (int s = 0; s < kSamples; ++s) samples.push_back(TimeReps(reps, op));
  return Median(std::move(samples));
}

// Per-op times of two ops over `samples` samples of `reps` runs of each,
// one thread, telemetry off. The ops alternate one by one inside every
// sample, so a burst of host noise lands on both alike, and the pair
// returned is the sample whose ratio first / second is the median: the
// ratio of the two times is the median paired ratio, and a sample slowed by
// the host on one side never meets a quiet one from the other.
std::array<int64_t, 2> MedianPairedSample(int samples, int reps,
                                          const std::function<void()>& first,
                                          const std::function<void()>& second) {
  const bool telemetry = TelemetryEnabled();
  SetTelemetryEnabled(false);
  std::vector<std::array<int64_t, 2>> pairs;
  for (int s = 0; s < samples; ++s) {
    int64_t total[2] = {0, 0};
    for (int r = 0; r < reps; ++r) {
      total[0] += TimeReps(1, first);
      total[1] += TimeReps(1, second);
    }
    pairs.push_back({total[0] / reps, std::max<int64_t>(1, total[1] / reps)});
  }
  SetTelemetryEnabled(telemetry);
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return static_cast<double>(a[0]) / static_cast<double>(a[1]) <
           static_cast<double>(b[0]) / static_cast<double>(b[1]);
  });
  return pairs[pairs.size() / 2];
}

// The 100k-row DC-SBM behind the gather and Gemm sweeps, built once.
const Graph& Synth100k() {
  static const Graph graph = DatasetRegistry::Global().Build(
      {.name = "synth", .seed = 1, .nodes = 100000, .avg_degree = 20.0});
  return graph;
}

void FusedSweep() {
  Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
  const auto a_hat = graph.normalized_adjacency();
  const int n = graph.num_nodes(), d = 64;
  Rng rng(2);
  const Matrix x = Matrix::Random(n, d, rng);
  const Matrix pre = Matrix::Random(n, d, rng);
  const int reps = bench::Pick(20, 200);
  Matrix naive_out(n, d), fused_out(n, d);
  SetParallelThreadCount(1);  // Time the kernels, not the pool wake-ups.

  std::printf("\nFused SkipNode propagation, %d nodes x %d cols, 1 thread, "
              "median of %d alternating samples of %d reps (ns/op)\n", n, d,
              kSamples, reps);
  std::printf("%6s %12s %12s %9s %14s\n", "rho", "naive", "fused", "speedup",
              "rows_skipped");
  for (const float rho : {0.0f, 0.25f, 0.5f, 0.75f, 1.0f}) {
    Rng mask_rng(7);
    const auto mask = SampleSkipMaskUniform(n, rho, mask_rng);
    const int skipped = CountSkipped(mask);
    const std::function<void()> naive = [&]() {
      naive_out.SetZero();
      a_hat->MultiplyAccumulate(x, naive_out);
      CopyRowsWhere(pre, mask, naive_out);
      benchmark::DoNotOptimize(naive_out.data());
    };
    const std::function<void()> fused = [&]() {
      fused_out.SetZero();
      CopyRowsWhere(pre, mask, fused_out);
      a_hat->MultiplyAccumulate(x, fused_out, mask);
      benchmark::DoNotOptimize(fused_out.data());
    };

    const bool telemetry = TelemetryEnabled();
    SetTelemetryEnabled(false);
    std::vector<int64_t> naive_samples, fused_samples;
    for (int s = 0; s < kSamples; ++s) {
      naive_samples.push_back(TimeReps(reps, naive));
      fused_samples.push_back(TimeReps(reps, fused));
    }
    SetTelemetryEnabled(telemetry);

    const auto record = [&](const char* name, const std::function<void()>& op,
                            std::vector<int64_t> samples) {
      bench::CellRecorder cell(name);
      cell.Param("rho", static_cast<double>(rho))
          .Param("cols", d)
          .Param("reps", reps)
          .Param("samples", kSamples);
      TimeReps(reps, op);
      const int64_t median = Median(std::move(samples));
      cell.Record("ns_per_op", static_cast<double>(median));
      return median;
    };
    const int64_t naive_ns = record("spmm_naive", naive, naive_samples);
    const int64_t fused_ns = record("spmm_fused", fused, fused_samples);

    std::printf("%6.2f %12lld %12lld %8.2fx %14d\n", rho,
                static_cast<long long>(naive_ns),
                static_cast<long long>(fused_ns),
                static_cast<double>(naive_ns) /
                    static_cast<double>(fused_ns > 0 ? fused_ns : 1),
                skipped);
  }
  SetParallelThreadCount(0);
}

// --- Transposed-SpMM sweep ---------------------------------------------------
// Backward-pass cost Â^T · g over the cached transpose plan: the unmasked
// gather at a pool width of 1 and 4 (cells "spmm_t"; the ratio is the
// parallel speedup, flat on a single-core host), then the masked gather over
// rho on one thread (cells "spmm_t_masked"; work drops with the skipped
// source rows — near-total at rho=1.0, while rho=0.5 pays maximal
// skip-branch misprediction and can lose to the unmasked gather). Every
// cell records the median of kSamples samples. Each masked cell's telemetry
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
              "median of %d samples of %d reps (ns/op)\n", n, d, kSamples,
              reps);
  for (const int threads : {1, 4}) {
    SetParallelThreadCount(threads);
    bench::CellRecorder cell("spmm_t");
    cell.Param("cols", d).Param("reps", reps).Param("samples", kSamples);
    const int64_t ns = MedianReps(reps, [&]() {
      Matrix dx = a_hat->MultiplyTransposed(g);
      benchmark::DoNotOptimize(dx.data());
    });
    cell.Record("ns_per_op", static_cast<double>(ns));
    std::printf("  unmasked @ %d threads %12lld\n", threads,
                static_cast<long long>(ns));
  }

  SetParallelThreadCount(1);
  std::printf("%6s %12s %14s   (1 thread)\n", "rho", "masked",
              "rows_skipped");
  for (const float rho : {0.0f, 0.5f, 1.0f}) {
    Rng mask_rng(7);
    const auto mask = SampleSkipMaskUniform(n, rho, mask_rng);
    const int skipped = CountSkipped(mask);
    bench::CellRecorder cell("spmm_t_masked");
    cell.Param("rho", static_cast<double>(rho))
        .Param("cols", d)
        .Param("reps", reps)
        .Param("samples", kSamples);
    const int64_t ns = MedianReps(reps, [&]() {
      Matrix dx = a_hat->MultiplyTransposed(g, mask);
      benchmark::DoNotOptimize(dx.data());
    });
    cell.Record("ns_per_op", static_cast<double>(ns));
    std::printf("%6.2f %12lld %14d\n", rho, static_cast<long long>(ns),
                skipped);
  }
  SetParallelThreadCount(0);
}

// --- Prefetched sparse gather -----------------------------------------------
// The CSR row gather behind every product prefetches every cache line of
// the dense row it reads 16 entries ahead once the dense operand outgrows
// L2 (DESIGN §7, §14).
// Cell "spmm_gather" times the library's MultiplyAccumulate (library=1)
// against a bench-local copy of the gather loop without the prefetch
// (library=0), on one thread, alternating op by op inside every sample;
// both cells record the sample with the median paired ratio
// (MedianPairedSample). On a 100k-row DC-SBM at d = 32 the operand
// is 12.8 MB, so the library prefetches (validate_bench_jsonl.py requires
// >= 1.3x); on cora_like at d = 32 it is 346 KB, below the threshold, so
// both run the same loop (the library may be at most 1.05x slower). The two
// outputs must be bit for bit equal, or the bench aborts.

// The row gather without the prefetch: output row i adds values[e] *
// dense.row(col_idx[e]) over its entries, in entry order.
void ReferenceGather(const CsrMatrix& a, const Matrix& dense, Matrix& out) {
  const int d = dense.cols();
  const int64_t* ptr = a.row_offsets().data();
  const int* src = a.col_idx().data();
  const float* values = a.values().data();
  ParallelForBalanced(
      out.rows(), ptr,
      [&](int64_t row_begin, int64_t row_end) {
        for (int i = static_cast<int>(row_begin); i < row_end; ++i) {
          float* __restrict out_row = out.row(i);
          for (int64_t e = ptr[i]; e < ptr[i + 1]; ++e) {
            simd::Axpy(values[e], dense.row(src[e]), out_row, d);
          }
        }
      },
      /*work_per_cost=*/d + 1);
}

void GatherCell(const char* graph_name, const Graph& graph, int reps) {
  const auto a_hat = graph.normalized_adjacency();
  const int n = graph.num_nodes(), d = 32;
  Rng rng(12);
  const Matrix x = Matrix::Random(n, d, rng);
  Matrix reference_out(n, d), library_out(n, d);
  const std::function<void()> reference = [&]() {
    reference_out.SetZero();
    ReferenceGather(*a_hat, x, reference_out);
    benchmark::DoNotOptimize(reference_out.data());
  };
  const std::function<void()> library = [&]() {
    library_out.SetZero();
    a_hat->MultiplyAccumulate(x, library_out);
    benchmark::DoNotOptimize(library_out.data());
  };
  const std::array<int64_t, 2> medians =
      MedianPairedSample(kGatherSamples, reps, reference, library);
  SKIPNODE_CHECK_MSG(
      std::memcmp(reference_out.data(), library_out.data(),
                  sizeof(float) * static_cast<size_t>(reference_out.size())) ==
          0,
      "spmm_gather: the library product differs from the reference loop on "
      "%s", graph_name);
  for (const int lib : {0, 1}) {
    bench::CellRecorder cell("spmm_gather");
    cell.Param("graph", graph_name)
        .Param("library", lib)
        .Param("rows", n)
        .Param("cols", d)
        .Param("reps", reps)
        .Param("samples", kGatherSamples);
    // One more op inside the cell, so its snapshot carries the kernel.
    (lib == 0 ? reference : library)();
    cell.Record("ns_per_op", static_cast<double>(medians[lib]));
  }
  std::printf("%12s %8d rows %12lld %12lld %8.2fx\n", graph_name, n,
              static_cast<long long>(medians[0]),
              static_cast<long long>(medians[1]),
              static_cast<double>(medians[0]) /
                  static_cast<double>(medians[1] > 0 ? medians[1] : 1));
}

void GatherSweep() {
  SetParallelThreadCount(1);  // Time the kernels, not the pool wake-ups.
  std::printf("\nSparse gather, library vs the loop without the prefetch, "
              "d=32, 1 thread, the sample with the median paired ratio "
              "(ns/op)\n");
  std::printf("%12s %13s %12s %12s %9s\n", "graph", "", "reference",
              "library", "speedup");
  GatherCell("dcsbm_100k", Synth100k(), bench::Pick(3, 9));
  // Both sides run the same loop here, so the 1.05x cap sees only noise
  // unless the library prefetches: shorter samples than on the DC-SBM.
  GatherCell("cora_like", BuildDatasetByName("cora_like", 1.0, 1),
             bench::Pick(70, 700));
  SetParallelThreadCount(0);
}

// --- Register-tiled Gemm row kernel -----------------------------------------
// Gemm's A·B and Aᵀ·B paths run simd::GemmRow once per output row: the row's
// nonzero entries of A compacted once, each 32/16/8/4-column block of the
// output summed in registers and stored once (DESIGN §14). Cell "gemm_row"
// times the library's Gemm (library=1) against a bench-local copy of the
// loop it replaced, one simd::Axpy per nonzero entry of A (library=0), at
// the workloads' shapes: cora_like's features times a 128 x 32 weight, a
// hidden layer at 40 % nonzero (ReLU, then dropout) times a 32 x 32 weight,
// the backward's Hᵀ·G, and the 100k-row synth features times a 32 x 32
// weight. One thread, alternating op by op inside each of kSamples samples;
// both cells record the sample with the median paired ratio
// (MedianPairedSample), and the bench aborts unless the two outputs are bit
// for bit equal. validate_bench_jsonl.py requires >= 2x on the A·B cells and
// >= 1.5x on Hᵀ·G.

// Gemm's A·B (or, with transpose_a, Aᵀ·B) loop before the row kernel, on
// one thread: zero the output, then one Axpy per nonzero entry of A.
void ReferenceGemm(const Matrix& a, const Matrix& b, Matrix& out,
                   bool transpose_a) {
  const int n = out.cols();
  out.SetZero();
  if (!transpose_a) {
    for (int i = 0; i < a.rows(); ++i) {
      const float* __restrict ai = a.row(i);
      float* __restrict oi = out.row(i);
      for (int p = 0; p < a.cols(); ++p) {
        if (ai[p] == 0.0f) continue;
        simd::Axpy(ai[p], b.row(p), oi, n);
      }
    }
    return;
  }
  for (int i = 0; i < a.rows(); ++i) {
    const float* __restrict ai = a.row(i);
    const float* __restrict bi = b.row(i);
    for (int p = 0; p < a.cols(); ++p) {
      if (ai[p] == 0.0f) continue;
      simd::Axpy(ai[p], bi, out.row(p), n);
    }
  }
}

// `m` with each entry zeroed independently with probability 1 - keep.
Matrix Sparsify(Matrix m, float keep, Rng& rng) {
  for (int64_t e = 0; e < m.size(); ++e) {
    if (rng.Uniform() >= keep) m.data()[e] = 0.0f;
  }
  return m;
}

double NonzeroShare(const Matrix& m) {
  int64_t nonzero = 0;
  for (int64_t e = 0; e < m.size(); ++e) nonzero += m.data()[e] != 0.0f;
  return static_cast<double>(nonzero) / static_cast<double>(m.size());
}

void GemmRowCell(const char* shape, const Matrix& a, const Matrix& b,
                 bool transpose_a, int reps) {
  const int m = transpose_a ? a.cols() : a.rows();
  const int k = transpose_a ? a.rows() : a.cols();
  Matrix reference_out(m, b.cols()), library_out(m, b.cols());
  const std::function<void()> reference = [&]() {
    ReferenceGemm(a, b, reference_out, transpose_a);
    benchmark::DoNotOptimize(reference_out.data());
  };
  const std::function<void()> library = [&]() {
    Gemm(a, b, library_out, {.transpose_a = transpose_a});
    benchmark::DoNotOptimize(library_out.data());
  };
  const std::array<int64_t, 2> medians =
      MedianPairedSample(kSamples, reps, reference, library);
  SKIPNODE_CHECK_MSG(
      std::memcmp(reference_out.data(), library_out.data(),
                  sizeof(float) * static_cast<size_t>(reference_out.size())) ==
          0,
      "gemm_row: the library Gemm differs from the Axpy loop on %s", shape);
  const double nonzero = NonzeroShare(a);
  for (const int lib : {0, 1}) {
    bench::CellRecorder cell("gemm_row");
    cell.Param("shape", shape)
        .Param("library", lib)
        .Param("rows", m)
        .Param("inner", k)
        .Param("cols", b.cols())
        .Param("a_nonzero", nonzero)
        .Param("reps", reps)
        .Param("samples", kSamples);
    // One more op inside the cell, so its snapshot carries the kernel.
    (lib == 0 ? reference : library)();
    cell.Record("ns_per_op", static_cast<double>(medians[lib]));
  }
  std::printf("%12s %6d x %4d x %3d  %4.0f%% %12lld %12lld %8.2fx\n", shape,
              m, k, b.cols(), 100.0 * nonzero,
              static_cast<long long>(medians[0]),
              static_cast<long long>(medians[1]),
              static_cast<double>(medians[0]) /
                  static_cast<double>(medians[1] > 0 ? medians[1] : 1));
}

void GemmRowSweep() {
  const bool saved_simd = simd::Enabled();
  simd::SetEnabled(true);
  SetParallelThreadCount(1);  // Time the kernels, not the pool wake-ups.
  std::printf("\nGemm row kernel, library vs the per-entry Axpy loop, 1 "
              "thread, the sample with the median paired ratio of %d "
              "(ns/op)\n",
              kSamples);
  std::printf("%12s %20s %5s %12s %12s %9s\n", "shape", "m x k x n", "nnz",
              "reference", "library", "speedup");
  Rng rng(13);
  const int reps = bench::Pick(20, 200);
  {
    const Graph graph = BuildDatasetByName("cora_like", 1.0, 1);
    const Matrix w = Matrix::Random(graph.feature_dim(), 32, rng);
    GemmRowCell("cora_x_w", graph.features(), w, false, reps);
  }
  {
    const Matrix h = Sparsify(Matrix::Random(2708, 32, rng), 0.4f, rng);
    const Matrix w = Matrix::Random(32, 32, rng);
    const Matrix g = Matrix::Random(2708, 32, rng);
    GemmRowCell("h_w", h, w, false, reps);
    GemmRowCell("ht_g", h, g, true, reps);
  }
  {
    const Matrix& x = Synth100k().features();
    const Matrix w = Matrix::Random(x.cols(), 32, rng);
    GemmRowCell("synth_x_w", x, w, false, bench::Pick(3, 9));
  }
  SetParallelThreadCount(0);
  simd::SetEnabled(saved_simd);
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

// --- Propensity-CDF lookup --------------------------------------------------
// The DC-SBM generator's inner step (DESIGN §13): independent targets looked
// up in a 200k-entry power-law propensity CDF — the size of the global table
// behind the 200k-node streamed graphs — on one thread. Cell "cdf_lookup"
// guided=0 is std::upper_bound, the reference whose index the guide table
// must return for every target; guided=1 is the library's CdfTable. Both
// must return the same index sum or the bench aborts;
// validate_bench_jsonl.py requires guided=1 to be >= 3x faster.

void CdfLookupSweep() {
  SetParallelThreadCount(1);
  PlantedPartitionConfig config;
  config.num_nodes = 200000;
  config.num_classes = 10;
  Rng rng(21);
  const CdfTable table = PlanDcSbm(config, rng).global;
  const std::vector<double>& cdf = table.cdf();
  std::vector<double> targets(4000000);
  for (double& target : targets) target = rng.Uniform() * cdf.back();
  const int reps = bench::Pick(1, 5);
  const auto n = static_cast<int64_t>(targets.size());

  std::printf("\nPropensity-CDF lookup, %zu entries, %lld targets, 1 thread, "
              "%d reps (ns/lookup)\n", cdf.size(),
              static_cast<long long>(n), reps);
  int64_t sums[2] = {0, 0};
  for (const int guided : {0, 1}) {
    bench::CellRecorder cell("cdf_lookup");
    cell.Param("guided", guided)
        .Param("entries", static_cast<int64_t>(cdf.size()))
        .Param("targets", n)
        .Param("reps", reps);
    const int64_t ns = TimeReps(reps, [&]() {
      int64_t sum = 0;
      if (guided) {
        for (const double target : targets) sum += table.Find(target);
      } else {
        for (const double target : targets) {
          const auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
          sum += std::min<int64_t>(it - cdf.begin(),
                                   static_cast<int64_t>(cdf.size()) - 1);
        }
      }
      benchmark::DoNotOptimize(sum);
      sums[guided] = sum;
    });
    const double ns_per_lookup = static_cast<double>(ns) / n;
    cell.Record("ns_per_op", ns_per_lookup);
    std::printf("  guided=%d %10.2f   index sum %lld\n", guided, ns_per_lookup,
                static_cast<long long>(sums[guided]));
  }
  SKIPNODE_CHECK_MSG(sums[0] == sums[1],
                     "cdf_lookup: guide table index sum %lld != upper_bound "
                     "%lld", static_cast<long long>(sums[1]),
                     static_cast<long long>(sums[0]));
  SetParallelThreadCount(0);
}

// --- Pool fan-out cost -------------------------------------------------------
// What one fan-out costs (DESIGN §7). The job is an element-wise Axpy over
// `work` floats, so `work` work units, one per element, run through
// ParallelFor at widths 1 and 4. Each call declares at least 4 ×
// kMinWorkPerChunk of work, so width 4 always fans out into four chunks
// whatever the real work, and width 1 runs it inline. The two widths
// alternate rep block by rep block inside every sample, with telemetry off;
// cell "pool_fanout" (params work, threads) records, per width, the process
// CPU (metric cpu_ns_per_op) and the wall time (ns_per_op) per call of the
// sample with the median width-4 / width-1 CPU ratio. Width 4's CPU minus
// width 1's is what a fan-out costs at that size; EXPERIMENTS.md ("The
// pool's fan-out cost") derives kMinWorkPerChunk from that curve. These
// timings are recorded, not gated. Cell "pool_fanout_dispatch" (metric
// dispatches, param work_over_grain) is the deterministic part, which
// validate_bench_jsonl.py gates: at width 4, declared work one unit below
// the grain dispatches no job, and work at twice the grain dispatches one.

int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

void PoolFanoutSweep() {
  constexpr int kWidths[2] = {1, 4};
  const int samples = bench::Pick(5, 15);
  std::printf("\nPool fan-out: Axpy over `work` floats, widths 1 vs 4, "
              "median of %d samples (per call)\n"
              "  %9s %12s %12s %12s %12s %12s\n",
              samples, "work", "cpu@1 ns", "cpu@4 ns", "wall@1 ns",
              "wall@4 ns", "cpu@4-cpu@1");
  for (int64_t work = int64_t{1} << 12; work <= int64_t{1} << 21;
       work *= 2) {
    Rng rng(31);
    const Matrix x = Matrix::Random(1, static_cast<int>(work), rng);
    Matrix y(1, static_cast<int>(work));
    const int64_t declared =
        std::max<int64_t>(1, 4 * kMinWorkPerChunk / work);
    const int reps = static_cast<int>(std::max<int64_t>(
        2, bench::Pick(int64_t{1} << 20, int64_t{1} << 22) / work));
    const auto run = [&] {
      ParallelFor(
          0, work,
          [&](int64_t lo, int64_t hi) {
            simd::Axpy(1e-3f, x.data() + lo, y.data() + lo, hi - lo);
          },
          declared);
    };
    // samples x width -> {cpu, wall} per call.
    std::vector<std::array<std::array<int64_t, 2>, 2>> timings;
    const bool telemetry = TelemetryEnabled();
    SetTelemetryEnabled(false);
    for (int s = 0; s < samples; ++s) {
      std::array<std::array<int64_t, 2>, 2> sample{};
      for (int w = 0; w < 2; ++w) {
        SetParallelThreadCount(kWidths[w]);
        run();  // wakes the workers once before the timed block
        const int64_t cpu0 = ProcessCpuNanos();
        const int64_t wall0 = MonotonicNanos();
        for (int r = 0; r < reps; ++r) run();
        sample[w] = {(ProcessCpuNanos() - cpu0) / reps,
                     (MonotonicNanos() - wall0) / reps};
      }
      timings.push_back(sample);
    }
    SetTelemetryEnabled(telemetry);
    std::sort(timings.begin(), timings.end(),
              [](const auto& a, const auto& b) {
                return static_cast<double>(a[1][0]) / std::max<int64_t>(
                                                          1, a[0][0]) <
                       static_cast<double>(b[1][0]) / std::max<int64_t>(
                                                          1, b[0][0]);
              });
    const auto& median = timings[timings.size() / 2];
    for (int w = 0; w < 2; ++w) {
      SetParallelThreadCount(kWidths[w]);
      bench::CellRecorder cell("pool_fanout");
      cell.Param("work", work).Param("reps", reps).Param("samples", samples);
      cell.Record("cpu_ns_per_op", static_cast<double>(median[w][0]));
      cell.Record("ns_per_op", static_cast<double>(median[w][1]));
    }
    std::printf("  %9lld %12lld %12lld %12lld %12lld %12lld\n",
                static_cast<long long>(work),
                static_cast<long long>(median[0][0]),
                static_cast<long long>(median[1][0]),
                static_cast<long long>(median[0][1]),
                static_cast<long long>(median[1][1]),
                static_cast<long long>(median[1][0] - median[0][0]));
  }

  // The deterministic part: what the pool does with declared work around
  // the grain, at width 4.
  SetParallelThreadCount(4);
  const bool telemetry = TelemetryEnabled();
  SetTelemetryEnabled(true);
  for (const char* where : {"below", "2x"}) {
    const bool below = std::strcmp(where, "below") == 0;
    bench::CellRecorder cell("pool_fanout_dispatch");
    cell.Param("work_over_grain", where)
        .Param("grain", kMinWorkPerChunk);
    ResetTelemetry();
    // Two elements, each half the declared total.
    ParallelFor(
        0, 2, [](int64_t, int64_t) {},
        below ? (kMinWorkPerChunk - 1) / 2 : kMinWorkPerChunk);
    const TelemetrySnapshot snapshot = SnapshotTelemetry();
    const MetricStat* task = snapshot.Find("parallel.task");
    const int64_t dispatches = task == nullptr ? 0 : task->count;
    cell.Record("dispatches", static_cast<double>(dispatches));
    std::printf("  declared work %s the grain (%lld): %lld dispatch(es)\n",
                below ? "below" : "at 2x", static_cast<long long>(
                                                kMinWorkPerChunk),
                static_cast<long long>(dispatches));
  }
  SetTelemetryEnabled(telemetry);
  SetParallelThreadCount(0);
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
  skipnode::GatherSweep();
  skipnode::GemmRowSweep();
  skipnode::SimdSweep();
  skipnode::CdfLookupSweep();
  skipnode::PoolFanoutSweep();
  if (skipnode::TelemetryEnabled()) {
    std::printf("telemetry: %s\n",
                skipnode::SnapshotTelemetry().ToJson().c_str());
  }
  return 0;
}
