// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Width-adaptive offset array for CSR index structures (row pointers and
// transpose-plan permutations). Offsets count stored entries, so they only
// need 64 bits once a matrix holds more than INT32_MAX entries; everything
// smaller stays on compact 32-bit storage (half the index memory and twice
// the prefix-scan cache density at 10M+ edges). The width is chosen once at
// build time by CsrBuilder and never changes afterwards, and kernels bind
// the raw pointer of the active width exactly once per call (WithOffsets),
// so inner loops are width-monomorphic — no per-element branch.

#ifndef SKIPNODE_SPARSE_OFFSET_VEC_H_
#define SKIPNODE_SPARSE_OFFSET_VEC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "base/check.h"

namespace skipnode {

class OffsetVec {
 public:
  // Empty narrow vector (matches a default CsrMatrix's {0} row_ptr once
  // assigned).
  OffsetVec() = default;

  static OffsetVec Narrow(std::vector<int> v) {
    OffsetVec out;
    out.v32_ = std::move(v);
    return out;
  }

  static OffsetVec Wide(std::vector<int64_t> v) {
    OffsetVec out;
    out.wide_ = true;
    out.v64_ = std::move(v);
    return out;
  }

  bool wide() const { return wide_; }
  size_t size() const { return wide_ ? v64_.size() : v32_.size(); }
  bool empty() const { return size() == 0; }

  int64_t operator[](size_t i) const {
    return wide_ ? v64_[i] : static_cast<int64_t>(v32_[i]);
  }
  int64_t back() const { return wide_ ? v64_.back() : v32_.back(); }

  const int* data32() const {
    SKIPNODE_CHECK(!wide_);
    return v32_.data();
  }
  const int64_t* data64() const {
    SKIPNODE_CHECK(wide_);
    return v64_.data();
  }

 private:
  bool wide_ = false;
  std::vector<int> v32_;
  std::vector<int64_t> v64_;
};

// Invokes fn with the raw offset pointer of the active width; fn is a
// generic lambda instantiated once per width, so the dispatch happens once
// per kernel call, outside the loops.
template <typename Fn>
decltype(auto) WithOffsets(const OffsetVec& offsets, Fn&& fn) {
  return offsets.wide() ? fn(offsets.data64()) : fn(offsets.data32());
}

}  // namespace skipnode

#endif  // SKIPNODE_SPARSE_OFFSET_VEC_H_
