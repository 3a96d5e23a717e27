// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "base/parallel.h"
#include "base/simd.h"
#include "base/telemetry.h"

namespace skipnode {
namespace {

// Minimum amount of arithmetic a chunk should carry before fanning out to
// the pool; below this the wake-up latency dominates the kernel.
constexpr int64_t kMinFlopsPerChunk = 1 << 15;

// Rows each thread must own at minimum for a row-partitioned kernel whose
// per-row cost is `flops_per_row`.
int64_t MinRowsPerThread(int64_t flops_per_row) {
  return std::max<int64_t>(1, kMinFlopsPerChunk / std::max<int64_t>(
                                                      1, flops_per_row));
}

// Column-block width of the i-p-j Gemm kernel: for wide outputs the k x jb
// panel of B (at most 1 KB per row of the panel) stays cache-resident across
// a thread's whole row block instead of being streamed once per output row.
// Blocking only reorders whole (p, j-block) passes; for any fixed output
// element the p-accumulation order is unchanged, so results stay bitwise
// identical to the unblocked kernel (and across block widths).
constexpr int kGemmColumnBlock = 256;

}  // namespace

void Gemm(const Matrix& a, const Matrix& b, Matrix& out,
          const GemmOptions& options) {
  SKIPNODE_CHECK(!(options.transpose_a && options.transpose_b));
  // Shapes of the transposed views: out is m x n, shared dimension k.
  const int m = options.transpose_a ? a.cols() : a.rows();
  const int k = options.transpose_a ? a.rows() : a.cols();
  const int n = options.transpose_b ? b.rows() : b.cols();
  SKIPNODE_CHECK(k == (options.transpose_b ? b.cols() : b.rows()));
  SKIPNODE_CHECK(out.rows() == m && out.cols() == n);
  // Per-variant names so the backward-pass shapes (dW = X^T dY, dX = dY W^T)
  // show up separately from the forward GEMM in a snapshot.
  const char* timer_name = options.transpose_a   ? "tensor.gemm_ta"
                           : options.transpose_b ? "tensor.gemm_tb"
                                                 : "tensor.gemm";
  const ScopedTimer timer(timer_name, /*items=*/m);
  const int64_t min_rows =
      MinRowsPerThread(2 * static_cast<int64_t>(k) * n);
  const bool accumulate = options.accumulate;

  if (!options.transpose_a && !options.transpose_b) {
    // i-p-j loop order keeps the inner loop contiguous in both B and out so
    // the compiler can vectorise it; this is the library's hottest kernel.
    // Columns are processed in kGemmColumnBlock-wide panels (outermost per
    // thread) so the touched slice of B fits in cache for the whole row
    // block; per-element sums still run in ascending p order regardless of
    // the block width, keeping the bitwise contract.
    ParallelFor(
        0, m,
        [&](int64_t row_begin, int64_t row_end) {
          for (int jb = 0; jb < n; jb += kGemmColumnBlock) {
            const int je = std::min(n, jb + kGemmColumnBlock);
            for (int i = static_cast<int>(row_begin); i < row_end; ++i) {
              const float* __restrict ai = a.row(i);
              float* __restrict oi = out.row(i);
              if (!accumulate) std::fill(oi + jb, oi + je, 0.0f);
              for (int p = 0; p < k; ++p) {
                const float aip = ai[p];
                if (aip == 0.0f) continue;
                const float* __restrict bp = b.row(p);
                simd::Axpy(aip, bp + jb, oi + jb, je - jb);
              }
            }
          }
        },
        min_rows);
  } else if (options.transpose_a) {
    // out rows are columns of A. Each thread walks all rows of A but writes
    // only its own block of output rows, in the same i-ascending order the
    // serial kernel used, so the sums are bit-for-bit unchanged.
    ParallelFor(
        0, m,
        [&](int64_t row_begin, int64_t row_end) {
          const int p0 = static_cast<int>(row_begin);
          const int p1 = static_cast<int>(row_end);
          if (!accumulate) {
            for (int p = p0; p < p1; ++p) {
              float* op = out.row(p);
              std::fill(op, op + n, 0.0f);
            }
          }
          for (int i = 0; i < a.rows(); ++i) {
            const float* __restrict ai = a.row(i);
            const float* __restrict bi = b.row(i);
            for (int p = p0; p < p1; ++p) {
              const float aip = ai[p];
              if (aip == 0.0f) continue;
              float* __restrict op = out.row(p);
              simd::Axpy(aip, bi, op, n);
            }
          }
        },
        min_rows);
  } else {
    // A * B^T: per output a dot product accumulated in double in ascending
    // k — the serial kernel's exact order — computed kLanes outputs at a time
    // from B^T packed into double panels once per call.
    std::vector<double> panels(
        static_cast<size_t>(simd::GemmTbPanelsSize(n, k)));
    simd::PackGemmTbPanels(b.data(), b.cols(), n, k, panels.data());
    ParallelFor(
        0, m,
        [&](int64_t row_begin, int64_t row_end) {
          for (int i = static_cast<int>(row_begin); i < row_end; ++i) {
            float* oi = out.row(i);
            if (!accumulate) std::fill(oi, oi + n, 0.0f);
            simd::GemmTbRow(a.row(i), b.data(), b.cols(), panels.data(), n, k,
                            oi);
          }
        },
        min_rows);
  }
}

namespace {

// Element-parallel map over the flat buffers: every element is computed
// independently, so chunking cannot perturb results.
template <typename Fn>
void ParallelElements(int64_t size, const Fn& fn) {
  ParallelFor(
      0, size, [&](int64_t lo, int64_t hi) { fn(lo, hi); },
      /*min_per_thread=*/kMinFlopsPerChunk);
}

}  // namespace

Matrix Add(const Matrix& a, const Matrix& b) {
  SKIPNODE_CHECK(a.SameShape(b));
  Matrix out = a;
  const float* __restrict bd = b.data();
  float* __restrict od = out.data();
  ParallelElements(out.size(), [&](int64_t lo, int64_t hi) {
    simd::Accumulate(bd + lo, od + lo, hi - lo);
  });
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  SKIPNODE_CHECK(a.SameShape(b));
  Matrix out = a;
  const float* __restrict bd = b.data();
  float* __restrict od = out.data();
  ParallelElements(out.size(), [&](int64_t lo, int64_t hi) {
    simd::Subtract(bd + lo, od + lo, hi - lo);
  });
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols());
  HadamardInto(a, b, out);
  return out;
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix& out) {
  SKIPNODE_CHECK(a.SameShape(b));
  SKIPNODE_CHECK(a.SameShape(out));
  const float* __restrict ad = a.data();
  const float* __restrict bd = b.data();
  float* __restrict od = out.data();
  ParallelElements(out.size(), [&](int64_t lo, int64_t hi) {
    simd::Mul(ad + lo, bd + lo, od + lo, hi - lo);
  });
}

Matrix Scale(const Matrix& a, float s) {
  Matrix out(a.rows(), a.cols());
  ScaleInto(a, s, out);
  return out;
}

void ScaleInto(const Matrix& a, float s, Matrix& out) {
  SKIPNODE_CHECK(a.SameShape(out));
  const float* __restrict ad = a.data();
  float* __restrict od = out.data();
  ParallelElements(out.size(), [&](int64_t lo, int64_t hi) {
    simd::Scale(ad + lo, s, od + lo, hi - lo);
  });
}

void AddScaled(const Matrix& a, float s, Matrix& out) {
  SKIPNODE_CHECK(a.SameShape(out));
  const float* __restrict ad = a.data();
  float* __restrict od = out.data();
  ParallelElements(out.size(), [&](int64_t lo, int64_t hi) {
    simd::Axpy(s, ad + lo, od + lo, hi - lo);
  });
}

void AxpbyInto(const Matrix& a, const Matrix& b, float alpha, float beta,
               Matrix& out) {
  SKIPNODE_CHECK(a.SameShape(b));
  SKIPNODE_CHECK(a.SameShape(out));
  const float* __restrict ad = a.data();
  const float* __restrict bd = b.data();
  float* __restrict od = out.data();
  ParallelElements(out.size(), [&](int64_t lo, int64_t hi) {
    simd::Axpby(alpha, ad + lo, beta, bd + lo, od + lo, hi - lo);
  });
}

Matrix Relu(const Matrix& x) {
  Matrix out(x.rows(), x.cols());
  ReluInto(x, out);
  return out;
}

void ReluInto(const Matrix& x, Matrix& out) {
  const ScopedTimer timer("tensor.relu", /*items=*/x.rows());
  SKIPNODE_CHECK(x.SameShape(out));
  const float* __restrict xd = x.data();
  float* __restrict od = out.data();
  ParallelElements(out.size(), [&](int64_t lo, int64_t hi) {
    simd::Relu(xd + lo, od + lo, hi - lo);
  });
}

Matrix ReluBackward(const Matrix& x, const Matrix& grad) {
  const ScopedTimer timer("tensor.relu_backward", /*items=*/x.rows());
  SKIPNODE_CHECK(x.SameShape(grad));
  Matrix out = grad;
  const float* __restrict xd = x.data();
  float* __restrict od = out.data();
  ParallelElements(out.size(), [&](int64_t lo, int64_t hi) {
    simd::ReluGradInPlace(xd + lo, od + lo, hi - lo);
  });
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) out(j, i) = a(i, j);
  }
  return out;
}

Matrix ConcatCols(const std::vector<const Matrix*>& parts) {
  SKIPNODE_CHECK(!parts.empty());
  const int rows = parts[0]->rows();
  int cols = 0;
  for (const Matrix* part : parts) {
    SKIPNODE_CHECK(part->rows() == rows);
    cols += part->cols();
  }
  Matrix out(rows, cols);
  for (int i = 0; i < rows; ++i) {
    float* oi = out.row(i);
    for (const Matrix* part : parts) {
      const float* pi = part->row(i);
      std::copy(pi, pi + part->cols(), oi);
      oi += part->cols();
    }
  }
  return out;
}

Matrix GatherRows(const Matrix& x, const std::vector<int>& rows) {
  const ScopedTimer timer("tensor.gather_rows",
                          /*items=*/static_cast<int64_t>(rows.size()));
  Matrix out(static_cast<int>(rows.size()), x.cols());
  ParallelFor(
      0, static_cast<int64_t>(rows.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          SKIPNODE_CHECK(rows[i] >= 0 && rows[i] < x.rows());
          std::copy(x.row(rows[i]), x.row(rows[i]) + x.cols(),
                    out.row(static_cast<int>(i)));
        }
      },
      MinRowsPerThread(x.cols()));
  return out;
}

// Serial: `rows` may repeat, so output rows are not owned by one source row
// and a row partition over `src` would race (and reorder the += per target).
void ScatterAddRows(const Matrix& src, const std::vector<int>& rows,
                    Matrix& out) {
  const ScopedTimer timer("tensor.scatter_add_rows",
                          /*items=*/static_cast<int64_t>(rows.size()));
  SKIPNODE_CHECK(src.rows() == static_cast<int>(rows.size()));
  SKIPNODE_CHECK(src.cols() == out.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    SKIPNODE_CHECK(rows[i] >= 0 && rows[i] < out.rows());
    const float* si = src.row(static_cast<int>(i));
    float* oi = out.row(rows[i]);
    simd::Accumulate(si, oi, out.cols());
  }
}

void CopyRowsWhere(const Matrix& src, const std::vector<uint8_t>& mask,
                   Matrix& out) {
  const ScopedTimer timer("tensor.copy_rows_where", /*items=*/src.rows());
  SKIPNODE_CHECK(src.SameShape(out));
  SKIPNODE_CHECK(static_cast<int>(mask.size()) == src.rows());
  ParallelFor(
      0, src.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int r = static_cast<int>(lo); r < hi; ++r) {
          if (!mask[r]) continue;
          std::copy(src.row(r), src.row(r) + src.cols(), out.row(r));
        }
      },
      MinRowsPerThread(src.cols()));
}

void AddRowsWhere(const Matrix& src, const std::vector<uint8_t>& mask,
                  Matrix& out) {
  const ScopedTimer timer("tensor.add_rows_where", /*items=*/src.rows());
  SKIPNODE_CHECK(src.SameShape(out));
  SKIPNODE_CHECK(static_cast<int>(mask.size()) == src.rows());
  ParallelFor(
      0, src.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int r = static_cast<int>(lo); r < hi; ++r) {
          if (!mask[r]) continue;
          const float* __restrict sr = src.row(r);
          float* __restrict or_ = out.row(r);
          simd::Accumulate(sr, or_, src.cols());
        }
      },
      MinRowsPerThread(src.cols()));
}

// Serial: a cross-row reduction — splitting rows across threads would
// reorder the float sums and break the bitwise determinism contract.
Matrix ColumnMeans(const Matrix& x) {
  SKIPNODE_CHECK(x.rows() > 0);
  Matrix out(1, x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    const float* xi = x.row(i);
    for (int j = 0; j < x.cols(); ++j) out(0, j) += xi[j];
  }
  const float inv = 1.0f / static_cast<float>(x.rows());
  for (int j = 0; j < x.cols(); ++j) out(0, j) *= inv;
  return out;
}

Matrix SubtractRowVector(const Matrix& x, const Matrix& v) {
  SKIPNODE_CHECK(v.rows() == 1 && v.cols() == x.cols());
  Matrix out = x;
  const float* __restrict vd = v.row(0);
  ParallelFor(
      0, out.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          float* oi = out.row(i);
          simd::Subtract(vd, oi, out.cols());
        }
      },
      MinRowsPerThread(out.cols()));
  return out;
}

Matrix RowSoftmax(const Matrix& x) {
  const ScopedTimer timer("tensor.row_softmax", /*items=*/x.rows());
  Matrix out = x;
  ParallelFor(
      0, out.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          float* oi = out.row(i);
          // The max and exp/total reductions stay serial scalar loops: the
          // running max and double sum are order-sensitive.
          float max_v = oi[0];
          for (int j = 1; j < out.cols(); ++j) max_v = std::max(max_v, oi[j]);
          double total = 0.0;
          for (int j = 0; j < out.cols(); ++j) {
            oi[j] = std::exp(oi[j] - max_v);
            total += oi[j];
          }
          const float inv = static_cast<float>(1.0 / total);
          simd::ScaleInPlace(oi, inv, out.cols());
        }
      },
      MinRowsPerThread(4 * out.cols()));
  return out;
}

Matrix RowLogSoftmax(const Matrix& x) {
  const ScopedTimer timer("tensor.row_log_softmax", /*items=*/x.rows());
  Matrix out = x;
  ParallelFor(
      0, out.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          float* oi = out.row(i);
          float max_v = oi[0];
          for (int j = 1; j < out.cols(); ++j) max_v = std::max(max_v, oi[j]);
          double total = 0.0;
          for (int j = 0; j < out.cols(); ++j) {
            total += std::exp(oi[j] - max_v);
          }
          const float log_z = max_v + static_cast<float>(std::log(total));
          // x - log_z == x + (-log_z) exactly (negation is a sign flip).
          simd::AddScalarInPlace(oi, -log_z, out.cols());
        }
      },
      MinRowsPerThread(4 * out.cols()));
  return out;
}

Matrix RowNorms(const Matrix& x) {
  const ScopedTimer timer("tensor.row_norms", /*items=*/x.rows());
  Matrix out(x.rows(), 1);
  ParallelFor(
      0, x.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          const float* xi = x.row(i);
          double total = 0.0;
          for (int j = 0; j < x.cols(); ++j) {
            total += static_cast<double>(xi[j]) * xi[j];
          }
          out(i, 0) = static_cast<float>(std::sqrt(total));
        }
      },
      MinRowsPerThread(2 * x.cols()));
  return out;
}

Matrix RowDots(const Matrix& a, const Matrix& b) {
  SKIPNODE_CHECK(a.SameShape(b));
  Matrix out(a.rows(), 1);
  ParallelFor(
      0, a.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          const float* ai = a.row(i);
          const float* bi = b.row(i);
          double total = 0.0;
          for (int j = 0; j < a.cols(); ++j) {
            total += static_cast<double>(ai[j]) * bi[j];
          }
          out(i, 0) = static_cast<float>(total);
        }
      },
      MinRowsPerThread(2 * a.cols()));
  return out;
}

float CosineSimilarity(const float* a, const float* b, int n) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int i = 0; i < n; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

std::vector<uint8_t> RowNonFiniteFlags(const Matrix& x) {
  const ScopedTimer timer("tensor.row_nonfinite_scan", /*items=*/x.rows());
  std::vector<uint8_t> flags(x.rows(), 0);
  ParallelFor(
      0, x.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          const float* xi = x.row(i);
          uint8_t bad = 0;
          for (int j = 0; j < x.cols(); ++j) {
            bad |= static_cast<uint8_t>(!std::isfinite(xi[j]));
          }
          flags[i] = bad;
        }
      },
      MinRowsPerThread(x.cols()));
  return flags;
}

bool HasNonFinite(const Matrix& x) {
  // Parallel per-row flags, serial OR-reduction (DESIGN §7: cross-row
  // reductions stay serial; an OR is order-insensitive anyway, but the
  // shared pattern keeps every scan on the same contract).
  const std::vector<uint8_t> flags = RowNonFiniteFlags(x);
  for (const uint8_t flag : flags) {
    if (flag) return true;
  }
  return false;
}

int64_t CountNonFinite(const Matrix& x) {
  // Per-row counts in parallel (each row owned by one thread), summed
  // serially — integer sums are exact, but the contract is uniform.
  std::vector<int64_t> row_counts(x.rows(), 0);
  ParallelFor(
      0, x.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int i = static_cast<int>(lo); i < hi; ++i) {
          const float* xi = x.row(i);
          int64_t count = 0;
          for (int j = 0; j < x.cols(); ++j) {
            count += !std::isfinite(xi[j]);
          }
          row_counts[i] = count;
        }
      },
      MinRowsPerThread(x.cols()));
  int64_t total = 0;
  for (const int64_t count : row_counts) total += count;
  return total;
}

float MaxRowNorm(const Matrix& x) {
  if (x.rows() == 0) return 0.0f;
  const Matrix norms = RowNorms(x);
  float best = 0.0f;
  for (int i = 0; i < norms.rows(); ++i) best = std::max(best, norms(i, 0));
  return best;
}

float MaxSingularValue(const Matrix& w, int iterations, Rng* rng) {
  SKIPNODE_CHECK(w.rows() > 0 && w.cols() > 0);
  Rng local(12345);
  Rng& r = rng != nullptr ? *rng : local;
  // Power iteration on w^T w (cols x cols operator) starting from a random
  // vector; sigma_max = sqrt(lambda_max(w^T w)).
  Matrix v = Matrix::RandomNormal(w.cols(), 1, r);
  for (int it = 0; it < iterations; ++it) {
    Matrix wv = MatMul(w, v);                 // rows x 1
    Matrix wtwv = MatMulTransposeA(w, wv);    // cols x 1
    const float norm = wtwv.Norm();
    if (norm <= 1e-30f) return 0.0f;
    v = Scale(wtwv, 1.0f / norm);
  }
  // v has unit norm after the loop, so sigma_max ~= ||w v||.
  return MatMul(w, v).Norm();
}

void SetMaxSingularValue(Matrix& w, float target) {
  SKIPNODE_CHECK(target >= 0.0f);
  const float current = MaxSingularValue(w);
  if (current <= 1e-30f) return;
  const float factor = target / current;
  float* d = w.data();
  for (int64_t i = 0; i < w.size(); ++i) d[i] *= factor;
}

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  SKIPNODE_CHECK(a.SameShape(b));
  float best = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    best = std::max(best, std::fabs(a.data()[i] - b.data()[i]));
  }
  return best;
}

}  // namespace skipnode
