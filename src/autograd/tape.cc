// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.

#include "autograd/tape.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace skipnode {

// Every buffer the tape owns goes back to the pool; the next step's tape
// (same model, same graph) re-acquires the identical shapes.
Tape::~Tape() {
  MatrixPool& pool = GlobalMatrixPool();
  for (auto& node : nodes_) {
    pool.Release(std::move(node->value));
    if (node->grad_ready) pool.Release(std::move(node->grad));
  }
}

const Matrix& Var::value() const {
  SKIPNODE_CHECK(tape_ != nullptr);
  return tape_->node(index_).value;
}

const Matrix& Var::grad() const {
  SKIPNODE_CHECK(tape_ != nullptr);
  // Lazily materialise a zero gradient for nodes the backward pass never
  // reached so callers can treat grad() uniformly.
  return tape_->EnsureGrad(index_);
}

Var Tape::Emplace(Matrix value, std::span<const Var> inputs) {
  auto fresh = std::make_unique<Node>();
  fresh->value = std::move(value);
  for (const Var& input : inputs) {
    SKIPNODE_CHECK(input.tape_ == this);
    if (node(input.index_).needs_grad) fresh->needs_grad = true;
  }
  nodes_.push_back(std::move(fresh));
  return Var(this, static_cast<int>(nodes_.size()) - 1);
}

Matrix* Tape::GradIfNeeded(int index) {
  return node(index).needs_grad ? &EnsureGrad(index) : nullptr;
}

Matrix& Tape::EnsureGrad(int index) {
  Node& n = node(index);
  if (!n.grad_ready) {
    n.grad = GlobalMatrixPool().Acquire(n.value.rows(), n.value.cols());
    n.grad_ready = true;
  }
  return n.grad;
}

Matrix Tape::AcquireOutput(int rows, int cols) {
  return GlobalMatrixPool().Acquire(rows, cols);
}

Var Tape::Leaf(Parameter& parameter) {
  Var v = Emplace(parameter.value, {});
  Node& n = node(v.index_);
  n.needs_grad = true;
  Parameter* param = &parameter;
  Tape* tape = this;
  const int index = v.index_;
  n.backward = [tape, param, index]() {
    const Matrix& g = tape->node(index).grad;
    SKIPNODE_CHECK(g.SameShape(param->grad));
    AddScaled(g, 1.0f, param->grad);
  };
  return v;
}

Var Tape::Constant(const Matrix& value) {
  Matrix copy = AcquireOutput(value.rows(), value.cols());
  std::copy_n(value.data(), value.size(), copy.data());
  return Emplace(std::move(copy), {});
}

Var Tape::Constant(Matrix&& value) { return Emplace(std::move(value), {}); }

Matrix& Tape::MutableValue(Var v) {
  SKIPNODE_CHECK(v.tape_ == this);
  return node(v.index_).value;
}

void Tape::Backward(Var loss) {
  SKIPNODE_CHECK(loss.tape_ == this);
  SKIPNODE_CHECK(!backward_done_);
  SKIPNODE_CHECK(loss.rows() == 1 && loss.cols() == 1);
  backward_done_ = true;
  EnsureGrad(loss.index_)(0, 0) = 1.0f;
  for (int i = loss.index_; i >= 0; --i) {
    Node& n = node(i);
    if (!n.grad_ready || !n.backward) continue;
    n.backward();
  }
}

}  // namespace skipnode
