#!/usr/bin/env bash
# Builds the library under ThreadSanitizer and runs the tests that exercise
# the thread pool and the inference server. Any data race in ParallelFor, a
# parallel kernel, the CSR builder (row fill written from parallel code,
# per-row sorts fanned out; csr_builder_test, and datasets_test through the
# normaliser), the SIMD kill-switch that pool workers read (flipped
# between kernel calls by tensor_ops_test, spmm_simd_test and
# optimizer_test), the workspace pool's buckets and handed-out record
# (shared with the serve writer's Freeze; pool_test acquires and releases
# from two threads), or the serve queue/batching path aborts the run with a
# TSan report.
#
# Usage: tools/check_tsan.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-tsan

cmake -B "$BUILD_DIR" -DSKIPNODE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  parallel_test telemetry_test tensor_ops_test csr_matrix_test \
  csr_builder_test datasets_test spmm_simd_test spmm_transposed_parallel_test spmm_rowselect_test \
  graph_ops_test optimizer_test trainer_test trainer_health_test \
  trainer_metrics_test sampler_test sampled_train_test \
  frozen_model_test serve_concurrency_test serve_robustness_test pool_test

# Force multi-threaded execution even on single-core hosts so the pool's
# synchronisation actually gets exercised.
export SKIPNODE_NUM_THREADS=4

ctest --test-dir "$BUILD_DIR" --output-on-failure -R \
  '^(parallel_test|telemetry_test|tensor_ops_test|csr_matrix_test|csr_builder_test|datasets_test|spmm_simd_test|spmm_transposed_parallel_test|spmm_rowselect_test|graph_ops_test|optimizer_test|trainer_test|trainer_health_test|trainer_metrics_test|sampler_test|sampled_train_test|frozen_model_test|serve_concurrency_test|serve_robustness_test|pool_test)$' \
  "$@"

echo "TSan: no data races detected."
