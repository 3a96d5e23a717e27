// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Implementations of every differentiable op on the Tape. Each op computes
// its value eagerly and, when its output needs a gradient, registers a
// closure that pushes the output gradient into the parents that need one.

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "autograd/tape.h"
#include "base/check.h"
#include "base/simd.h"
#include "base/telemetry.h"
#include "sparse/offset_vec.h"
#include "tensor/ops.h"

namespace skipnode {

Var Tape::MatMul(Var a, Var b) {
  SKIPNODE_CHECK(a.tape_ == this && b.tape_ == this);
  Matrix value = AcquireOutput(a.rows(), b.cols());
  Gemm(a.value(), b.value(), value);
  Var out = Emplace(std::move(value), {a, b});
  Tape* tape = this;
  const int oi = out.index_, ai = a.index_, bi = b.index_;
  SetBackward(out, [tape, oi, ai, bi]() {
    const Matrix& g = tape->node(oi).grad;
    // dA += g * B^T ; dB += A^T * g (both row-parallel through Gemm). dA is
    // skipped when A is an input with no Parameter behind it — on the first
    // layer, the (dropped-out) feature matrix, the largest product here.
    if (Matrix* ga = tape->GradIfNeeded(ai)) {
      Gemm(g, tape->node(bi).value, *ga,
           {.transpose_b = true, .accumulate = true});
    }
    if (Matrix* gb = tape->GradIfNeeded(bi)) {
      Gemm(tape->node(ai).value, g, *gb,
           {.transpose_a = true, .accumulate = true});
    }
  });
  return out;
}

Var Tape::SpMM(std::shared_ptr<const CsrMatrix> a, Var x) {
  SKIPNODE_CHECK(a != nullptr);
  SKIPNODE_CHECK(x.tape_ == this);
  Matrix value = AcquireOutput(a->rows(), x.cols());
  a->MultiplyAccumulate(x.value(), value);
  Var out = Emplace(std::move(value), {x});
  Tape* tape = this;
  const int oi = out.index_, xi = x.index_;
  SetBackward(out, [tape, oi, xi, a = std::move(a)]() {
    // Labels the whole backward hop (parallel gather + accumulate) so the
    // per-op cost is separable from the raw sparse.spmm_t kernel timer.
    const ScopedTimer timer("autograd.spmm_backward", /*items=*/a->cols());
    const Matrix& g = tape->node(oi).grad;
    Matrix gx = a->MultiplyTransposed(g);
    AddScaled(gx, 1.0f, tape->EnsureGrad(xi));
  });
  return out;
}

Var Tape::SpMMRowSelect(std::shared_ptr<const CsrMatrix> a, Var x, Var pre,
                        std::vector<uint8_t> skip_mask) {
  SKIPNODE_CHECK(a != nullptr);
  SKIPNODE_CHECK(x.tape_ == this && pre.tape_ == this);
  SKIPNODE_CHECK(pre.rows() == a->rows() && pre.cols() == x.cols());
  SKIPNODE_CHECK(static_cast<int>(skip_mask.size()) == a->rows());
  // Skipped rows copy through from `pre`; only the kept rows pay for the
  // convolution. Disjoint row sets, so the order of the two kernels is
  // irrelevant.
  Matrix value = AcquireOutput(a->rows(), x.cols());
  CopyRowsWhere(pre.value(), skip_mask, value);
  a->MultiplyAccumulateMasked(x.value(), skip_mask, value);
  Var out = Emplace(std::move(value), {x, pre});
  Tape* tape = this;
  const int oi = out.index_, xi = x.index_, pi = pre.index_;
  SetBackward(out, [tape, oi, xi, pi, a = std::move(a),
                    mask = std::move(skip_mask)]() {
    const ScopedTimer timer("autograd.spmm_rowselect_backward",
                            /*items=*/a->cols());
    const Matrix& g = tape->node(oi).grad;
    // dX += A^T * (g with skipped rows zeroed): the masked transpose never
    // reads the skipped rows, matching the zero rows RowSelect's backward
    // would have left in the convolution gradient.
    if (Matrix* gx = tape->GradIfNeeded(xi)) {
      AddScaled(a->MultiplyTransposedMasked(g, mask), 1.0f, *gx);
    }
    // Skipped rows bypass the convolution entirely — SkipNode's gradient
    // highway (Eq. 4).
    if (Matrix* gp = tape->GradIfNeeded(pi)) AddRowsWhere(g, mask, *gp);
  });
  return out;
}

Var Tape::Add(Var a, Var b) { return Axpby(a, b, 1.0f, 1.0f); }

Var Tape::Sub(Var a, Var b) { return Axpby(a, b, 1.0f, -1.0f); }

Var Tape::AddRowBroadcast(Var x, Var bias) {
  SKIPNODE_CHECK(x.tape_ == this && bias.tape_ == this);
  SKIPNODE_CHECK(bias.rows() == 1 && bias.cols() == x.cols());
  Matrix value = AcquireOutput(x.rows(), x.cols());
  const Matrix& xv = x.value();
  const Matrix& bv = bias.value();
  const float* bd = bv.row(0);
  for (int r = 0; r < value.rows(); ++r) {
    simd::Add(xv.row(r), bd, value.row(r), value.cols());
  }
  Var out = Emplace(std::move(value), {x, bias});
  Tape* tape = this;
  const int oi = out.index_, xi = x.index_, bi = bias.index_;
  SetBackward(out, [tape, oi, xi, bi]() {
    const Matrix& g = tape->node(oi).grad;
    if (Matrix* gx = tape->GradIfNeeded(xi)) AddScaled(g, 1.0f, *gx);
    // Column accumulation: rows add into the bias gradient in ascending row
    // order (each element's sum order is fixed — vector lanes are distinct
    // columns), preserving the serial kernel's bits.
    if (Matrix* gb = tape->GradIfNeeded(bi)) {
      float* gbd = gb->row(0);
      for (int r = 0; r < g.rows(); ++r) {
        simd::Accumulate(g.row(r), gbd, g.cols());
      }
    }
  });
  return out;
}

Var Tape::Axpby(Var a, Var b, float alpha, float beta) {
  SKIPNODE_CHECK(a.tape_ == this && b.tape_ == this);
  SKIPNODE_CHECK(a.value().SameShape(b.value()));
  Matrix value = AcquireOutput(a.rows(), a.cols());
  AxpbyInto(a.value(), b.value(), alpha, beta, value);
  Var out = Emplace(std::move(value), {a, b});
  Tape* tape = this;
  const int oi = out.index_, ai = a.index_, bi = b.index_;
  SetBackward(out, [tape, oi, ai, bi, alpha, beta]() {
    const Matrix& g = tape->node(oi).grad;
    if (Matrix* ga = tape->GradIfNeeded(ai)) AddScaled(g, alpha, *ga);
    if (Matrix* gb = tape->GradIfNeeded(bi)) AddScaled(g, beta, *gb);
  });
  return out;
}

Var Tape::Scale(Var a, float s) {
  SKIPNODE_CHECK(a.tape_ == this);
  Var out = Emplace(skipnode::Scale(a.value(), s), {a});
  Tape* tape = this;
  const int oi = out.index_, ai = a.index_;
  SetBackward(out, [tape, oi, ai, s]() {
    AddScaled(tape->node(oi).grad, s, tape->EnsureGrad(ai));
  });
  return out;
}

Var Tape::Relu(Var a) {
  SKIPNODE_CHECK(a.tape_ == this);
  Matrix value = AcquireOutput(a.rows(), a.cols());
  ReluInto(a.value(), value);
  Var out = Emplace(std::move(value), {a});
  Tape* tape = this;
  const int oi = out.index_, ai = a.index_;
  SetBackward(out, [tape, oi, ai]() {
    // Pass-through where the *input* was positive.
    Matrix masked = ReluBackward(tape->node(ai).value, tape->node(oi).grad);
    AddScaled(masked, 1.0f, tape->EnsureGrad(ai));
  });
  return out;
}

Var Tape::Dropout(Var a, float rate, bool training, Rng& rng) {
  SKIPNODE_CHECK(a.tape_ == this);
  SKIPNODE_CHECK(rate >= 0.0f && rate < 1.0f);
  if (!training || rate == 0.0f) return a;
  const float keep_scale = 1.0f / (1.0f - rate);
  // The draws of one Bernoulli(rate) call per element, in element order,
  // made a chunk at a time.
  Matrix mask(a.rows(), a.cols());
  constexpr int64_t kChunk = 4096;
  uint8_t dropped[kChunk];
  for (int64_t begin = 0; begin < mask.size(); begin += kChunk) {
    const int64_t len = std::min(kChunk, mask.size() - begin);
    rng.BernoulliFill(rate, dropped, len);
    float* m = mask.data() + begin;
    for (int64_t i = 0; i < len; ++i) m[i] = dropped[i] ? 0.0f : keep_scale;
  }
  Matrix value = AcquireOutput(a.rows(), a.cols());
  HadamardInto(a.value(), mask, value);
  Var out = Emplace(std::move(value), {a});
  Tape* tape = this;
  const int oi = out.index_, ai = a.index_;
  SetBackward(out, [tape, oi, ai, mask = std::move(mask)]() {
    Matrix ga = Hadamard(tape->node(oi).grad, mask);
    AddScaled(ga, 1.0f, tape->EnsureGrad(ai));
  });
  return out;
}

Var Tape::ConcatCols(const std::vector<Var>& parts) {
  SKIPNODE_CHECK(!parts.empty());
  std::vector<const Matrix*> values;
  std::vector<int> indices;
  values.reserve(parts.size());
  for (const Var& part : parts) {
    SKIPNODE_CHECK(part.tape_ == this);
    values.push_back(&part.value());
    indices.push_back(part.index_);
  }
  Var out = Emplace(skipnode::ConcatCols(values), parts);
  Tape* tape = this;
  const int oi = out.index_;
  SetBackward(out, [tape, oi, indices = std::move(indices)]() {
    const Matrix& g = tape->node(oi).grad;
    int col_offset = 0;
    for (const int pi : indices) {
      const int cols = tape->node(pi).value.cols();
      if (Matrix* gp = tape->GradIfNeeded(pi)) {
        for (int r = 0; r < gp->rows(); ++r) {
          simd::Accumulate(g.row(r) + col_offset, gp->row(r), cols);
        }
      }
      col_offset += cols;
    }
  });
  return out;
}

Var Tape::LinearCombination(const std::vector<Var>& parts, Var coefficients) {
  SKIPNODE_CHECK(!parts.empty());
  SKIPNODE_CHECK(coefficients.tape_ == this);
  SKIPNODE_CHECK(coefficients.rows() == 1);
  SKIPNODE_CHECK(coefficients.cols() == static_cast<int>(parts.size()));
  const Matrix& coeff = coefficients.value();
  Matrix value(parts[0].rows(), parts[0].cols());
  std::vector<int> indices;
  for (size_t k = 0; k < parts.size(); ++k) {
    SKIPNODE_CHECK(parts[k].tape_ == this);
    SKIPNODE_CHECK(parts[k].value().SameShape(value));
    AddScaled(parts[k].value(), coeff(0, static_cast<int>(k)), value);
    indices.push_back(parts[k].index_);
  }
  std::vector<Var> inputs = parts;
  inputs.push_back(coefficients);
  Var out = Emplace(std::move(value), inputs);
  Tape* tape = this;
  const int oi = out.index_, ci = coefficients.index_;
  SetBackward(out, [tape, oi, ci, indices = std::move(indices)]() {
    const Matrix& g = tape->node(oi).grad;
    const Matrix& coeff = tape->node(ci).value;
    Matrix* gc = tape->GradIfNeeded(ci);
    for (size_t k = 0; k < indices.size(); ++k) {
      const Matrix& xk = tape->node(indices[k]).value;
      if (Matrix* gk = tape->GradIfNeeded(indices[k])) {
        AddScaled(g, coeff(0, static_cast<int>(k)), *gk);
      }
      if (gc == nullptr) continue;
      // d/dc_k = <g, X_k>.
      double dot = 0.0;
      for (int64_t i = 0; i < g.size(); ++i) {
        dot += static_cast<double>(g.data()[i]) * xk.data()[i];
      }
      (*gc)(0, static_cast<int>(k)) += static_cast<float>(dot);
    }
  });
  return out;
}

Var Tape::GatherRows(Var x, std::vector<int> rows) {
  SKIPNODE_CHECK(x.tape_ == this);
  Var out = Emplace(skipnode::GatherRows(x.value(), rows), {x});
  Tape* tape = this;
  const int oi = out.index_, xi = x.index_;
  SetBackward(out, [tape, oi, xi, rows = std::move(rows)]() {
    ScatterAddRows(tape->node(oi).grad, rows, tape->EnsureGrad(xi));
  });
  return out;
}

Var Tape::GatAggregate(std::shared_ptr<const CsrMatrix> pattern, Var h,
                       Var score_src, Var score_dst, float leaky_slope) {
  SKIPNODE_CHECK(pattern != nullptr);
  SKIPNODE_CHECK(h.tape_ == this);
  SKIPNODE_CHECK(score_src.tape_ == this && score_dst.tape_ == this);
  const int n = h.rows();
  SKIPNODE_CHECK(pattern->rows() == n && pattern->cols() == n);
  SKIPNODE_CHECK(score_src.rows() == n && score_src.cols() == 1);
  SKIPNODE_CHECK(score_dst.rows() == n && score_dst.cols() == 1);

  const std::vector<int>& col_idx = pattern->col_idx();
  const Matrix& hv = h.value();
  const Matrix& src = score_src.value();
  const Matrix& dst = score_dst.value();

  // Per-edge raw scores (pre-LeakyReLU sign decides the backward slope) and
  // row-softmax attention weights, cached for the backward pass. Offsets
  // resolve through WithOffsets so wide-offset patterns take the same path.
  std::vector<float> raw(col_idx.size());
  std::vector<float> alpha(col_idx.size());
  Matrix value(n, hv.cols());
  WithOffsets(pattern->row_offsets(), [&](const auto* row_ptr) {
    for (int i = 0; i < n; ++i) {
      const int64_t begin = row_ptr[i], end = row_ptr[i + 1];
      if (begin == end) continue;
      float max_e = -std::numeric_limits<float>::infinity();
      for (int64_t e = begin; e < end; ++e) {
        const size_t se = static_cast<size_t>(e);
        const float pre = src(i, 0) + dst(col_idx[se], 0);
        raw[se] = pre;
        const float activated = pre > 0.0f ? pre : leaky_slope * pre;
        alpha[se] = activated;
        max_e = std::max(max_e, activated);
      }
      double total = 0.0;
      for (int64_t e = begin; e < end; ++e) {
        const size_t se = static_cast<size_t>(e);
        alpha[se] = std::exp(alpha[se] - max_e);
        total += alpha[se];
      }
      const float inv = static_cast<float>(1.0 / total);
      float* out_row = value.row(i);
      for (int64_t e = begin; e < end; ++e) {
        const size_t se = static_cast<size_t>(e);
        alpha[se] *= inv;
        const float* neighbor = hv.row(col_idx[se]);
        simd::Axpy(alpha[se], neighbor, out_row, hv.cols());
      }
    }
  });
  Var out = Emplace(std::move(value), {h, score_src, score_dst});

  Tape* tape = this;
  const int oi = out.index_, hi = h.index_;
  const int si = score_src.index_, di = score_dst.index_;
  SetBackward(out, [tape, oi, hi, si, di, leaky_slope,
                    pattern = std::move(pattern), raw = std::move(raw),
                    alpha = std::move(alpha)]() {
    const Matrix& g = tape->node(oi).grad;
    const Matrix& hv = tape->node(hi).value;
    Matrix* gh = tape->GradIfNeeded(hi);
    Matrix* gs = tape->GradIfNeeded(si);
    Matrix* gd = tape->GradIfNeeded(di);
    const std::vector<int>& col_idx = pattern->col_idx();
    const int n = hv.rows(), d = hv.cols();
    std::vector<float> dalpha(col_idx.size());
    WithOffsets(pattern->row_offsets(), [&](const auto* row_ptr) {
      for (int i = 0; i < n; ++i) {
        const int64_t begin = row_ptr[i], end = row_ptr[i + 1];
        const float* gi = g.row(i);
        // d out_i / d h_j = alpha_ij; d out_i / d alpha_ij = h_j. The dot
        // stays a serial scalar loop: the double-precision dot is an
        // order-sensitive reduction.
        double weighted = 0.0;  // sum_k alpha_ik * dalpha_ik (softmax term).
        for (int64_t e = begin; e < end; ++e) {
          const size_t se = static_cast<size_t>(e);
          const int j = col_idx[se];
          const float* hj = hv.row(j);
          if (gh != nullptr) simd::Axpy(alpha[se], gi, gh->row(j), d);
          double dot = 0.0;
          for (int c = 0; c < d; ++c) {
            dot += static_cast<double>(gi[c]) * hj[c];
          }
          dalpha[se] = static_cast<float>(dot);
          weighted += alpha[se] * dot;
        }
        for (int64_t e = begin; e < end; ++e) {
          const size_t se = static_cast<size_t>(e);
          // Softmax backward, then the LeakyReLU slope.
          float de = alpha[se] * (dalpha[se] - static_cast<float>(weighted));
          if (raw[se] <= 0.0f) de *= leaky_slope;
          if (gs != nullptr) (*gs)(i, 0) += de;
          if (gd != nullptr) (*gd)(col_idx[se], 0) += de;
        }
      }
    });
  });
  return out;
}

Var Tape::RowDots(Var a, Var b) {
  SKIPNODE_CHECK(a.tape_ == this && b.tape_ == this);
  Var out = Emplace(skipnode::RowDots(a.value(), b.value()), {a, b});
  Tape* tape = this;
  const int oi = out.index_, ai = a.index_, bi = b.index_;
  SetBackward(out, [tape, oi, ai, bi]() {
    const Matrix& g = tape->node(oi).grad;  // N x 1
    const Matrix& av = tape->node(ai).value;
    const Matrix& bv = tape->node(bi).value;
    Matrix* ga = tape->GradIfNeeded(ai);
    Matrix* gb = tape->GradIfNeeded(bi);
    for (int r = 0; r < av.rows(); ++r) {
      const float gr = g(r, 0);
      if (ga != nullptr) simd::Axpy(gr, bv.row(r), ga->row(r), av.cols());
      if (gb != nullptr) simd::Axpy(gr, av.row(r), gb->row(r), av.cols());
    }
  });
  return out;
}

Var Tape::RowSelect(const std::vector<uint8_t>& skip_mask, Var skipped,
                    Var convolved) {
  SKIPNODE_CHECK(skipped.tape_ == this && convolved.tape_ == this);
  SKIPNODE_CHECK(skipped.value().SameShape(convolved.value()));
  SKIPNODE_CHECK(static_cast<int>(skip_mask.size()) == skipped.rows());
  Matrix value = convolved.value();
  const Matrix& sv = skipped.value();
  for (int r = 0; r < value.rows(); ++r) {
    if (skip_mask[r]) {
      std::copy(sv.row(r), sv.row(r) + sv.cols(), value.row(r));
    }
  }
  Var out = Emplace(std::move(value), {skipped, convolved});
  Tape* tape = this;
  const int oi = out.index_, si = skipped.index_, ci = convolved.index_;
  SetBackward(out, [tape, oi, si, ci, mask = skip_mask]() {
    const Matrix& g = tape->node(oi).grad;
    Matrix* gs = tape->GradIfNeeded(si);
    Matrix* gc = tape->GradIfNeeded(ci);
    for (int r = 0; r < g.rows(); ++r) {
      Matrix* dst = mask[r] ? gs : gc;
      if (dst != nullptr) simd::Accumulate(g.row(r), dst->row(r), g.cols());
    }
  });
  return out;
}

Var Tape::PairNorm(Var x, float scale, float epsilon) {
  SKIPNODE_CHECK(x.tape_ == this);
  const Matrix& xv = x.value();
  Matrix centered = SubtractRowVector(xv, ColumnMeans(xv));
  Matrix norms = RowNorms(centered);  // N x 1
  Matrix value = centered;
  for (int r = 0; r < value.rows(); ++r) {
    const float inv = scale / std::max(norms(r, 0), epsilon);
    simd::ScaleInPlace(value.row(r), inv, value.cols());
  }
  Var out = Emplace(std::move(value), {x});
  Tape* tape = this;
  const int oi = out.index_, xi = x.index_;
  SetBackward(out, [tape, oi, xi, centered = std::move(centered),
                    norms = std::move(norms), scale, epsilon]() {
    const Matrix& g = tape->node(oi).grad;
    const int n = g.rows(), d = g.cols();
    // d/dc of out = s*c/r:  dc = s/r * (g - c * (c.g)/r^2).
    Matrix dc(n, d);
    for (int r = 0; r < n; ++r) {
      const float rn = std::max(norms(r, 0), epsilon);
      const float* gr = g.row(r);
      const float* cr = centered.row(r);
      float* dcr = dc.row(r);
      double cg = 0.0;
      for (int c = 0; c < d; ++c) cg += static_cast<double>(cr[c]) * gr[c];
      const float cg_over_r2 = static_cast<float>(cg) / (rn * rn);
      const float s_over_r = scale / rn;
      for (int c = 0; c < d; ++c) {
        dcr[c] = s_over_r * (gr[c] - cr[c] * cg_over_r2);
      }
    }
    // Centering backward: dx = dc - column_mean(dc).
    Matrix dx = SubtractRowVector(dc, ColumnMeans(dc));
    AddScaled(dx, 1.0f, tape->EnsureGrad(xi));
  });
  return out;
}

Var Tape::SoftmaxCrossEntropy(Var logits, const std::vector<int>& labels,
                              const std::vector<int>& nodes) {
  SKIPNODE_CHECK(logits.tape_ == this);
  SKIPNODE_CHECK(!nodes.empty());
  SKIPNODE_CHECK(static_cast<int>(labels.size()) == logits.rows());
  const Matrix& z = logits.value();
  const int num_classes = z.cols();
  // Cache softmax rows for the selected nodes only.
  Matrix probs(static_cast<int>(nodes.size()), num_classes);
  double loss = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int node_id = nodes[i];
    SKIPNODE_CHECK(node_id >= 0 && node_id < z.rows());
    const int label = labels[node_id];
    SKIPNODE_CHECK(label >= 0 && label < num_classes);
    const float* zr = z.row(node_id);
    float max_v = zr[0];
    for (int c = 1; c < num_classes; ++c) max_v = std::max(max_v, zr[c]);
    double total = 0.0;
    float* pr = probs.row(static_cast<int>(i));
    for (int c = 0; c < num_classes; ++c) {
      pr[c] = std::exp(zr[c] - max_v);
      total += pr[c];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (int c = 0; c < num_classes; ++c) pr[c] *= inv;
    loss -= std::log(std::max(static_cast<double>(pr[label]), 1e-30));
  }
  Matrix value(1, 1);
  value(0, 0) = static_cast<float>(loss / static_cast<double>(nodes.size()));
  Var out = Emplace(std::move(value), {logits});

  Tape* tape = this;
  const int oi = out.index_, li = logits.index_;
  SetBackward(out, [tape, oi, li, probs = std::move(probs), nodes = nodes,
                    labels = labels]() mutable {
    const float g = tape->node(oi).grad(0, 0);
    const float inv_batch = 1.0f / static_cast<float>(nodes.size());
    // coef * (pr[c] - indicator) with coef = g * inv_batch, restructured as
    // an Axpy over probs with the label element pre-decremented — the same
    // three roundings per element as the historical inline loop, so bitwise
    // identical. Mutating probs is safe: Backward() runs at most once.
    const float coef = g * inv_batch;
    Matrix& gl = tape->EnsureGrad(li);
    for (size_t i = 0; i < nodes.size(); ++i) {
      const int node_id = nodes[i];
      float* pr = probs.row(static_cast<int>(i));
      const int label = labels[node_id];
      pr[label] -= 1.0f;
      simd::Axpy(coef, pr, gl.row(node_id), gl.cols());
    }
  });
  return out;
}

Var Tape::BceWithLogits(Var logits, const std::vector<float>& targets) {
  SKIPNODE_CHECK(logits.tape_ == this);
  SKIPNODE_CHECK(logits.cols() == 1);
  SKIPNODE_CHECK(static_cast<int>(targets.size()) == logits.rows());
  const Matrix& z = logits.value();
  double loss = 0.0;
  for (int r = 0; r < z.rows(); ++r) {
    const double zr = z(r, 0), t = targets[r];
    // Stable: max(z,0) - t*z + log(1 + exp(-|z|)).
    loss += std::max(zr, 0.0) - t * zr + std::log1p(std::exp(-std::fabs(zr)));
  }
  Matrix value(1, 1);
  value(0, 0) = static_cast<float>(loss / z.rows());
  Var out = Emplace(std::move(value), {logits});
  Tape* tape = this;
  const int oi = out.index_, li = logits.index_;
  SetBackward(out, [tape, oi, li, targets = targets]() {
    const float g = tape->node(oi).grad(0, 0);
    const Matrix& z = tape->node(li).value;
    Matrix& gl = tape->EnsureGrad(li);
    const float inv_n = 1.0f / static_cast<float>(z.rows());
    for (int r = 0; r < z.rows(); ++r) {
      const float sigmoid = 1.0f / (1.0f + std::exp(-z(r, 0)));
      gl(r, 0) += g * inv_n * (sigmoid - targets[r]);
    }
  });
  return out;
}

Var Tape::MseLoss(Var a, Var b) {
  SKIPNODE_CHECK(a.tape_ == this && b.tape_ == this);
  SKIPNODE_CHECK(a.value().SameShape(b.value()));
  const Matrix diff = skipnode::Sub(a.value(), b.value());
  Matrix value(1, 1);
  value(0, 0) = diff.SquaredNorm() / static_cast<float>(diff.size());
  Var out = Emplace(std::move(value), {a, b});
  Tape* tape = this;
  const int oi = out.index_, ai = a.index_, bi = b.index_;
  SetBackward(out, [tape, oi, ai, bi, diff = std::move(diff)]() {
    const float g = tape->node(oi).grad(0, 0);
    const float factor = 2.0f * g / static_cast<float>(diff.size());
    if (Matrix* ga = tape->GradIfNeeded(ai)) AddScaled(diff, factor, *ga);
    if (Matrix* gb = tape->GradIfNeeded(bi)) AddScaled(diff, -factor, *gb);
  });
  return out;
}

}  // namespace skipnode
