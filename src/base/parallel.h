// Copyright 2026 The SkipNode Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared-state thread pool behind every parallel kernel in the library.
//
// Threading model (the determinism contract):
//   * ParallelFor splits [begin, end) into at most ParallelThreadCount()
//     contiguous chunks, each handed to exactly one thread. Kernels
//     partition over *output rows*, so every output row is written by a
//     single thread and the float accumulation order within a row is the
//     sequential loop order regardless of the thread count. Results are
//     therefore bitwise identical for 1, 2, or N threads.
//   * Reductions that cross the partition axis (e.g. ColumnMeans) stay
//     serial — a parallel tree reduction would reorder float sums.
//   * The pool's workers are started lazily and reused across calls; the
//     main thread participates, so ParallelThreadCount() == 1 never touches
//     a worker and adds no overhead.
//
// The thread count resolves, in priority order: SetParallelThreadCount()
// (tests/benches), the SKIPNODE_NUM_THREADS environment variable, then
// std::thread::hardware_concurrency().

#ifndef SKIPNODE_BASE_PARALLEL_H_
#define SKIPNODE_BASE_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>

namespace skipnode {

// Number of threads ParallelFor may fan out across (>= 1).
int ParallelThreadCount();

// Overrides the thread count (count >= 1), or restores the default
// env/hardware resolution when count == 0. Not thread-safe against
// concurrent ParallelFor calls; intended for tests and benchmarks.
void SetParallelThreadCount(int count);

// Invokes fn(chunk_begin, chunk_end) over a static partition of
// [begin, end) into contiguous chunks, one chunk per thread at most.
// `min_per_thread` caps the fan-out for small ranges: no chunk is smaller
// than it (except the last). Chunk boundaries depend only on the range and
// the thread count, never on timing. Nested calls (from inside a chunk)
// run inline on the calling thread, so kernels may compose freely.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_per_thread = 1);

// Like ParallelFor over [0, n), but chunk boundaries balance a
// caller-supplied cost instead of the element count: `cost_prefix` is a
// non-decreasing array of n + 1 partial sums (a CSR row_ptr qualifies
// verbatim), and element i costs cost_prefix[i + 1] - cost_prefix[i]. Each
// chunk receives approximately total_cost / chunks cost, so one heavy
// element (a hub row) no longer serialises its whole equal-count chunk.
// `min_cost_per_chunk` caps the fan-out for small problems the way
// min_per_thread does for ParallelFor. Boundaries depend only on the prefix
// array, n, and the thread count — never on timing — so element ownership
// is deterministic and the DESIGN §7 bitwise contract holds unchanged. fn
// is never invoked on an empty range; nested calls run inline.
void ParallelForBalanced(int64_t n, const int64_t* cost_prefix,
                         const std::function<void(int64_t, int64_t)>& fn,
                         int64_t min_cost_per_chunk = 1);

// Grain for SpMM-shaped kernels partitioned with ParallelForBalanced over a
// CSR row_ptr: every stored entry costs `cols` inner-loop float ops, and a
// chunk should amortise roughly 2^14 of them so pool dispatch never
// dominates skinny matrices. The grain of the CsrMatrix row gather behind
// every SpMM product.
inline int64_t SpmmChunkCost(int64_t cols) {
  return std::max<int64_t>(1, (int64_t{1} << 14) / (cols + 1));
}

}  // namespace skipnode

#endif  // SKIPNODE_BASE_PARALLEL_H_
