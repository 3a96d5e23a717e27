// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Capacity-bucketed workspace pool for node-sized Matrix buffers. The
// one-Tape-per-step design allocates and frees the same N x d value and
// gradient matrices every training step; the pool recycles that storage
// across steps instead (DESIGN §10).
//
// Contract:
//   * Acquire(rows, cols) returns a matrix that is bit-for-bit identical to
//     a freshly constructed Matrix(rows, cols): recycled storage is zeroed
//     before it is handed out, so pooling can never perturb a result. The
//     storage is the best fit by capacity — the smallest pooled buffer that
//     holds rows * cols elements and is at most a quarter larger — so
//     full-batch steps hit their exact capacities and sampled batches, whose
//     frontiers differ by a few percent, reuse each other's buffers.
//   * Release(m) keeps m's storage only when this pool handed it out (and
//     neither bucket cap is hit); anything else — a parameter copy, a
//     non-pooled op's output, a caller's own Matrix — is freed, so storage
//     that no later Acquire asks for never piles up.
//   * The pool is shared by the training thread and the serve writer's
//     Freeze; a mutex guards the buckets and the handed-out record.
//
// Telemetry: every Acquire bumps pool.hit (recycled storage) or pool.miss
// (fresh allocation); items carries the requested element count. Every
// Release the pool frees instead of keeping bumps pool.dropped (items =
// elements freed). The signed counter pool.bytes_retained tracks capacity
// bytes parked in the pool (positive on retain, negative on hand-out or
// free), so a snapshot's running total is the resident pool footprint.
// Disable the pool entirely with SetMatrixPoolEnabled(false) or
// SKIPNODE_POOL=0 — Acquire then always allocates and Release frees,
// reproducing the pre-pool behaviour exactly.

#ifndef SKIPNODE_TENSOR_POOL_H_
#define SKIPNODE_TENSOR_POOL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "tensor/matrix.h"

namespace skipnode {

// Process-wide enable switch. Defaults to on unless the SKIPNODE_POOL
// environment variable is set to "0".
bool MatrixPoolEnabled();
void SetMatrixPoolEnabled(bool enabled);

class MatrixPool {
 public:
  // At most this many recycled buffers are kept per capacity bucket;
  // releases beyond the cap free their storage. Deep tapes release a few
  // hundred same-sized buffers per step, so the cap is sized to hold one
  // full step of a deep stack.
  static constexpr int kMaxBuffersPerBucket = 512;

  // Byte ceiling per bucket: at streaming scale a single 1M x 64 buffer is
  // 256 MiB, so the count cap alone no longer bounds the pool's footprint.
  // A release that would push its bucket past the cap frees instead.
  static constexpr int64_t kMaxBytesPerBucket = int64_t{256} << 20;

  // Zero-filled rows x cols matrix, on recycled storage when a pooled
  // buffer fits (capacity in [rows * cols, 1.25 * rows * cols]).
  Matrix Acquire(int rows, int cols);

  // Returns the matrix's storage to its capacity bucket when this pool
  // handed it out; frees it when it did not, when the bucket is at either
  // cap, or when the pool is disabled. The moved-from matrix is 0x0.
  void Release(Matrix m);

  // Frees pooled buffers (largest capacities first) until at most
  // target_bytes remain; returns the bytes freed. Trim(0) empties the pool
  // — what bench/scale calls between cells so one cell's workspaces don't
  // count against the next cell's budget. The storage goes back to the
  // allocator, which may keep it resident, so RSS need not fall: a sampled
  // run whose pool still took back foreign storage sat at 1018 MB after the
  // Trim that followed its 1100 MB warm-up.
  int64_t Trim(int64_t target_bytes = 0);

  // Frees every pooled buffer (tests, memory pressure). Same as Trim(0).
  void Clear();

  // Number of buffers currently pooled with the given capacity (elements).
  int BucketSize(int64_t capacity) const;

  // Total capacity bytes currently parked in the pool.
  int64_t bytes_retained() const;

 private:
  mutable std::mutex mutex_;
  // Pooled storage by capacity in elements. A bucket is erased when it
  // empties, so the first bucket at or above a request is the best fit.
  std::map<int64_t, std::vector<FloatBuffer>> buckets_;
  // Data pointers of the storage handed out and not yet released.
  std::unordered_set<const float*> handed_out_;
  int64_t bytes_retained_ = 0;
};

// The pool every Tape draws from.
MatrixPool& GlobalMatrixPool();

}  // namespace skipnode

#endif  // SKIPNODE_TENSOR_POOL_H_
