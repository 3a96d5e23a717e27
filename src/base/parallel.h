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

#include <cstdint>
#include <functional>

namespace skipnode {

// Number of threads ParallelFor may fan out across (>= 1).
int ParallelThreadCount();

// Overrides the thread count (count >= 1), or restores the default
// env/hardware resolution when count == 0. Not thread-safe against
// concurrent ParallelFor calls; intended for tests and benchmarks.
void SetParallelThreadCount(int count);

// Work, in units of about one inner-loop float op, that one chunk must
// carry before the pool fans out. Waking a worker and meeting it at the
// barrier costs process CPU whatever the chunk holds; micro_kernels'
// `pool_fanout` cell times that cost against declared work at widths 1 and
// 4, and EXPERIMENTS.md ("one measured grain behind every parallel kernel")
// derives this value from its curve. It is the one grain behind every
// parallel kernel: callers state what an element costs, never a chunk size.
inline constexpr int64_t kMinWorkPerChunk = int64_t{1} << 18;

// Invokes fn(chunk_begin, chunk_end) over a static partition of
// [begin, end) into contiguous chunks, one chunk per thread at most. Every
// element costs `work_per_element` work units (2·k·n for a Gemm row, one
// for an element-wise map); the pool splits into min(threads, n, total work
// / kMinWorkPerChunk) chunks, so a range whose work would not pay for a
// wake-up runs inline on the caller. Chunk boundaries depend only on the
// range, the declared work and the thread count, never on timing. Calls
// made from inside a chunk, and top-level calls that find the pool busy
// with another caller's job, run their whole range inline on the calling
// thread, so kernels may compose freely and never wait on each other.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t work_per_element);

// Like ParallelFor over [0, n), but chunk boundaries balance a
// caller-supplied cost instead of the element count: `cost_prefix` is a
// non-decreasing array of n + 1 partial sums (a CSR row_ptr qualifies
// verbatim), and element i costs cost_prefix[i + 1] - cost_prefix[i]. Each
// chunk receives approximately total_cost / chunks cost, so one heavy
// element (a hub row) no longer serialises its whole equal-count chunk.
// One unit of cost is `work_per_cost` work units (d + 1 for a CSR entry of
// an SpMM over d columns), and the chunk count follows the same rule as
// ParallelFor's. Boundaries depend only on the prefix array, n, the
// declared work and the thread count — never on timing — so element
// ownership is deterministic and the DESIGN §7 bitwise contract holds
// unchanged. fn is never invoked on an empty range; nested and busy-pool
// calls run inline.
void ParallelForBalanced(int64_t n, const int64_t* cost_prefix,
                         const std::function<void(int64_t, int64_t)>& fn,
                         int64_t work_per_cost);

}  // namespace skipnode

#endif  // SKIPNODE_BASE_PARALLEL_H_
