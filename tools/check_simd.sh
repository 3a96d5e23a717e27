#!/usr/bin/env bash
# Proves the exact-path SIMD contract (DESIGN §14) end to end: builds the
# tree once, trains the same SkipNode model with the vectorized kernels
# (SKIPNODE_SIMD unset) and with the runtime kill-switch (SKIPNODE_SIMD=0,
# every kernel routed through its scalar reference in simd_ref.cc) at
# 1/4/8 threads, and diffs the saved checkpoints bit for bit. Any
# reassociation smuggled into a vectorized kernel shows up as a byte
# difference here.
#
# Usage: tools/check_simd.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-simd
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cmake -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target skipnode_train_cli \
  >/dev/null

# A SkipNode run touches every vectorized family: Gemm (dense layers), the
# masked + unmasked SpMM forward and transposed backward (fused propagation),
# the elementwise tape ops, and Adam.
TRAIN_ARGS=(--dataset cora_like --model GCN --layers 4 --hidden 64
  --strategy skipnode-u --rate 0.5 --epochs 8 --seed 7)

for threads in 1 4 8; do
  export SKIPNODE_NUM_THREADS=$threads
  (unset SKIPNODE_SIMD; "$BUILD_DIR/tools/skipnode_train" "${TRAIN_ARGS[@]}" \
    --save-dir "$OUT/vec-$threads" >/dev/null)
  SKIPNODE_SIMD=0 "$BUILD_DIR/tools/skipnode_train" "${TRAIN_ARGS[@]}" \
    --save-dir "$OUT/ref-$threads" >/dev/null
  diff -r "$OUT/vec-$threads" "$OUT/ref-$threads" || {
    echo "SIMD: vectorized and SKIPNODE_SIMD=0 checkpoints differ at" \
      "$threads threads" >&2
    exit 1
  }
  echo "SIMD: bitwise identical at $threads threads (vectorized," \
    "kill-switch)."
done

# Cross-thread-count determinism (DESIGN §7) is already pinned by the unit
# suite; the on/off diffs above are this script's contribution.
echo "SIMD: exact-path training is bitwise independent of the kill-switch."
