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

// Rows of A that Gemm's Aᵀ·B path gathers per pass. It bounds the scratch
// at 128 floats per output row of the chunk whatever A's height, and the
// matching rows of B (16 KB at 32 columns) stay in L1 while every output
// row of the chunk sweeps them.
constexpr int kGemmTaGatherRows = 128;

// Columns of A the gather copies per sweep down the rows: one 64-byte line
// of each row, so the lines it reads and the scratch rows it writes stay in
// L1 whatever A's row stride.
constexpr int kGemmTaGatherCols = 16;

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
  // Work per output row: k multiply-adds into each of n columns.
  const int64_t row_work = 2 * static_cast<int64_t>(k) * n;
  const bool accumulate = options.accumulate;

  if (!options.transpose_a && !options.transpose_b) {
    // One row kernel call per output row; the index scratch is per chunk.
    ParallelFor(
        0, m,
        [&](int64_t row_begin, int64_t row_end) {
          std::vector<int> idx(static_cast<size_t>(k));
          for (int i = static_cast<int>(row_begin); i < row_end; ++i) {
            simd::GemmRow(a.row(i), k, b.data(), n, accumulate, idx.data(),
                          out.row(i));
          }
        },
        row_work);
  } else if (options.transpose_a) {
    // Output row p is column p of A. Each chunk gathers its own columns of
    // A into rows, kGemmTaGatherRows rows of A at a time, and runs the row
    // kernel on each gathered row against the matching rows of B. A later
    // pass continues from the sums the earlier one stored, so every output
    // still adds over ascending i from the same start: the serial order. The
    // chunk reads A but writes only its own output rows (DESIGN §7).
    ParallelFor(
        0, m,
        [&](int64_t row_begin, int64_t row_end) {
          const int p0 = static_cast<int>(row_begin);
          const int rows = static_cast<int>(row_end - row_begin);
          const int span = std::min(k, kGemmTaGatherRows);
          std::vector<float> cols(static_cast<size_t>(rows) * span);
          std::vector<int> idx(static_cast<size_t>(span));
          int i0 = 0;
          do {
            const int len = std::min(k - i0, kGemmTaGatherRows);
            for (int r0 = 0; r0 < rows; r0 += kGemmTaGatherCols) {
              const int r1 = std::min(rows, r0 + kGemmTaGatherCols);
              for (int i = 0; i < len; ++i) {
                const float* __restrict ai = a.row(i0 + i) + p0;
                for (int r = r0; r < r1; ++r) {
                  cols[static_cast<size_t>(r) * len + i] = ai[r];
                }
              }
            }
            const float* bi = b.data() + static_cast<int64_t>(i0) * n;
            for (int r = 0; r < rows; ++r) {
              simd::GemmRow(cols.data() + static_cast<size_t>(r) * len, len,
                            bi, n, accumulate || i0 > 0, idx.data(),
                            out.row(p0 + r));
            }
            i0 += len;
          } while (i0 < k);
        },
        row_work);
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
        row_work);
  }
}

namespace {

// Element-parallel map over the flat buffers: every element is computed
// independently, so chunking cannot perturb results. One work unit per
// element.
template <typename Fn>
void ParallelElements(int64_t size, const Fn& fn) {
  ParallelFor(
      0, size, [&](int64_t lo, int64_t hi) { fn(lo, hi); },
      /*work_per_element=*/1);
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

void AddRowVectorInto(const Matrix& x, const Matrix& v, Matrix& out) {
  SKIPNODE_CHECK(x.SameShape(out));
  SKIPNODE_CHECK(v.rows() == 1 && v.cols() == x.cols());
  const float* __restrict vd = v.row(0);
  ParallelFor(
      0, x.rows(),
      [&](int64_t lo, int64_t hi) {
        for (int r = static_cast<int>(lo); r < hi; ++r) {
          simd::Add(x.row(r), vd, out.row(r), x.cols());
        }
      },
      /*work_per_element=*/x.cols());
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
      /*work_per_element=*/x.cols());
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
      /*work_per_element=*/src.cols());
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
      /*work_per_element=*/src.cols());
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
      /*work_per_element=*/out.cols());
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
      /*work_per_element=*/2 * x.cols());
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
      /*work_per_element=*/2 * a.cols());
  return out;
}

int RowArgmax(const Matrix& x, int r) {
  const float* row = x.row(r);
  int best = 0;
  for (int c = 1; c < x.cols(); ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
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
      /*work_per_element=*/x.cols());
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
